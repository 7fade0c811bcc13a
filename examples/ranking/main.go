// Ranking walkthrough: reproduce the paper's Online Pharmacy Ranking
// (Problem 2) with cross-validation, report the pairwise-orderedness
// quality measure for several text models, and run the §6.4 outlier
// analysis — which illegitimate pharmacies fool the system, and which
// legitimate pharmacies look suspicious?
//
//	go run ./examples/ranking
package main

import (
	"context"
	"fmt"
	"log"

	"pharmaverify/internal/core"
	"pharmaverify/internal/dataset"
	"pharmaverify/internal/webgen"
)

func main() {
	world := webgen.Generate(webgen.Config{
		Seed: 7, NumLegit: 30, NumIllegit: 170, NetworkSize: 34,
	})
	snap, err := dataset.BuildCtx(context.Background(), "ranking-demo", world, world.Domains(), world.Labels(), dataset.BuildOptions{Workers: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d pharmacies\n\n", snap.Len())

	// Compare the ranking quality of different textRank sources, like
	// the paper's Table 15.
	cases := []struct {
		name string
		cfg  core.RankConfig
	}{
		{"TF-IDF NBM", core.RankConfig{Classifier: core.NBM, Terms: 500, Seed: 1}},
		{"TF-IDF SVM (hard 0/1 textRank)", core.RankConfig{Classifier: core.SVM, Terms: 500, Seed: 1}},
		{"TF-IDF J48 + SMOTE", core.RankConfig{Classifier: core.J48, Sampling: core.SMOTE, Terms: 500, Seed: 1}},
		{"N-Gram Graphs (Equation 3)", core.RankConfig{Representation: core.NGramGraphs, Terms: 500, Seed: 1}},
	}

	var best core.RankResult
	bestName := ""
	for _, c := range cases {
		res, err := core.RankCV(snap, c.cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s pairwise orderedness = %.4f\n", c.name, res.PairwiseOrderedness)
		if res.PairwiseOrderedness > best.PairwiseOrderedness {
			best, bestName = res, c.name
		}
	}

	// Outlier analysis on the best ranking (paper §6.4): the domain
	// experts found that illegitimate outliers are generally not part
	// of affiliate networks, and legitimate outliers are the pharmacies
	// that sell new prescriptions instead of refills.
	fmt.Printf("\noutlier analysis on the %s ranking:\n", bestName)
	illegitHigh, legitLow := core.Outliers(best.Ranking, 5)

	fmt.Println("\nillegitimate pharmacies ranked suspiciously high:")
	for _, r := range illegitHigh {
		s := world.Site(r.Domain)
		tag := "networked affiliate"
		if s != nil && s.Evader {
			tag = "evader — no affiliate network (matches the paper's expert finding)"
		} else if s != nil && s.Hub {
			tag = "network hub"
		}
		fmt.Printf("  %-42s score=%.3f  %s\n", r.Domain, r.Score, tag)
	}

	fmt.Println("\nlegitimate pharmacies ranked suspiciously low:")
	for _, r := range legitLow {
		s := world.Site(r.Domain)
		tag := "regular"
		if s != nil && s.Isolated {
			tag = "isolated new-prescription seller (matches the paper's expert finding)"
		}
		fmt.Printf("  %-42s score=%.3f  %s\n", r.Domain, r.Score, tag)
	}
}
