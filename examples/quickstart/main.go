// Quickstart: generate a synthetic pharmacy web, crawl it into a
// labeled snapshot, train a verifier, and classify + rank the
// pharmacies — the whole pipeline in one screen of code.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"pharmaverify"
)

func main() {
	// 1. A deterministic synthetic web of 20 legitimate and 100
	//    illegitimate pharmacies (stand-in for a real crawl; swap the
	//    fetcher for crawler.HTTPFetcher to go live).
	world := pharmaverify.GenerateWorld(pharmaverify.WorldConfig{
		Seed:     42,
		NumLegit: 20, NumIllegit: 100,
		NetworkSize: 25,
	})

	// 2. Crawl every domain (≤200 pages each, 16 domains at a time),
	//    merge and preprocess the text, extract outbound link endpoints.
	ctx := context.Background()
	snap, err := pharmaverify.BuildSnapshotCtx(ctx, "quickstart", world, world.Domains(), world.Labels(),
		pharmaverify.BuildOptions{Workers: 16})
	if err != nil {
		log.Fatal(err)
	}
	legit, illegit := snap.Counts()
	fmt.Printf("crawled %d pharmacies (%d legitimate, %d illegitimate)\n\n", snap.Len(), legit, illegit)

	// 3. Train the verification system: an SVM text model over TF-IDF
	//    term vectors plus a TrustRank network model.
	verifier, err := pharmaverify.TrainCtx(ctx, snap, pharmaverify.Options{
		Classifier: pharmaverify.SVM,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Assess every pharmacy: OPC verdict + OPR rank.
	assessments := verifier.Assess(snap.Pharmacies)
	correct := 0
	for i, a := range assessments {
		if a.Legitimate == (snap.Pharmacies[i].Label == 1) {
			correct++
		}
	}
	fmt.Printf("classification accuracy on the crawl: %.1f%%\n\n", 100*float64(correct)/float64(len(assessments)))

	// 5. The ranking puts legitimate pharmacies on top so human
	//    reviewers can start from the suspicious end.
	ranked := pharmaverify.RankAssessments(assessments)
	fmt.Println("most legitimate:")
	for _, a := range ranked[:5] {
		fmt.Printf("  %-42s rank=%.3f (text=%.3f, trust=%.3f)\n", a.Domain, a.Rank, a.TextProb, a.TrustScore)
	}
	fmt.Println("least legitimate:")
	for _, a := range ranked[len(ranked)-5:] {
		fmt.Printf("  %-42s rank=%.3f (text=%.3f, trust=%.3f)\n", a.Domain, a.Rank, a.TextProb, a.TrustScore)
	}
}
