// Crawlnet: crawl the synthetic pharmacy web, build the Algorithm-1
// link graph, run TrustRank, and inspect the network structure — the
// most-linked endpoints per class (the paper's Table 11) and how trust
// separates the classes.
//
//	go run ./examples/crawlnet
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"pharmaverify/internal/crawler"
	"pharmaverify/internal/dataset"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/trust"
	"pharmaverify/internal/webgen"
)

func main() {
	world := webgen.Generate(webgen.Config{
		Seed: 11, NumLegit: 25, NumIllegit: 150, NetworkSize: 30,
	})

	// Crawl one site "by hand" to show what the crawler sees.
	domain := world.Domains()[0]
	res := crawler.CrawlCtx(context.Background(), world, domain, crawler.Config{})
	fmt.Printf("crawl of %s: %d pages, %d external links\n", domain, len(res.Pages), len(res.External))
	for _, p := range res.Pages[:3] {
		fmt.Printf("  %-14s %q\n", p.Path, p.Title)
	}

	// The same crawl over a hostile network: 30% of fetch attempts fail
	// transiently (seeded, so perfectly reproducible). With retries and
	// backoff enabled the crawler recovers the identical page set, and
	// the telemetry shows what it cost.
	flaky := crawler.NewFaultInjector(world, crawler.FaultConfig{Seed: 11, TransientRate: 0.3})
	faulty := crawler.CrawlCtx(context.Background(), flaky, domain, crawler.Config{
		Retry:         crawler.RetryConfig{MaxAttempts: 6, Seed: 11},
		FailureBudget: 10,
	})
	fmt.Printf("same crawl at 30%% transient faults: %d pages (clean crawl found %d)\n",
		len(faulty.Pages), len(res.Pages))
	st := faulty.Stats
	fmt.Printf("  telemetry: %d attempts, %d retries, %d failed attempts, %d pages lost, %d breaker trips\n",
		st.Attempts, st.Retries, st.Failures, st.PagesFailed, st.BreakerTrips)

	// Full dataset build: all domains crawled concurrently.
	snap, err := dataset.BuildCtx(context.Background(), "crawlnet", world, world.Domains(), world.Labels(), dataset.BuildOptions{Workers: 16})
	if err != nil {
		log.Fatal(err)
	}

	// Table-11 style analysis: most linked-to endpoints per class.
	legitOut, illegitOut := map[string][]string{}, map[string][]string{}
	for _, p := range snap.Pharmacies {
		if p.Label == ml.Legitimate {
			legitOut[p.Domain] = p.Outbound
		} else {
			illegitOut[p.Domain] = p.Outbound
		}
	}
	fmt.Println("\nmost linked by legitimate pharmacies:   ", trust.TopLinked(legitOut, 5))
	fmt.Println("most linked by illegitimate pharmacies: ", trust.TopLinked(illegitOut, 5))

	// Build the link graph (Algorithm 1) and run TrustRank seeded with
	// the legitimate pharmacies.
	g := trust.BuildGraph(snap.Outbound())
	fmt.Printf("\nlink graph: %d nodes, %d edges\n", g.Len(), g.Edges())

	seeds := map[string]float64{}
	for _, p := range snap.Pharmacies {
		if p.Label == ml.Legitimate {
			seeds[p.Domain] = 1
		}
	}
	scores := trust.NewScores(g.Undirected(), trust.TrustRank(g.Undirected(), seeds, trust.Config{}))

	// How well does raw trust separate the classes?
	var legitScores, illegitScores []float64
	for _, p := range snap.Pharmacies {
		if p.Label == ml.Legitimate {
			legitScores = append(legitScores, scores.Of(p.Domain))
		} else {
			illegitScores = append(illegitScores, scores.Of(p.Domain))
		}
	}
	fmt.Printf("median TrustRank: legitimate %.4f vs illegitimate %.4f\n",
		median(legitScores), median(illegitScores))

	// The affiliate structure is visible in the graph: hubs have large
	// in-degree from their member storefronts.
	type deg struct {
		domain string
		in     int
	}
	var hubs []deg
	for _, d := range world.HubDomains() {
		if id := g.ID(d); id >= 0 {
			hubs = append(hubs, deg{d, g.InDegree(id)})
		}
	}
	sort.Slice(hubs, func(i, j int) bool { return hubs[i].in > hubs[j].in })
	fmt.Println("\naffiliate network hubs by in-degree:")
	for i, h := range hubs {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-42s %d inbound affiliate links\n", h.domain, h.in)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
