// Drift study: the paper's "model evolution over time" experiment
// (§6.5). Two snapshots of the pharmacy web are generated six months
// apart — the same legitimate pharmacies re-crawled, the illegitimate
// population fully replaced — and we ask the paper's two questions:
//
//  1. does a model trained on new data perform like one trained on old
//     data? (robustness)
//
//  2. is a model trained on old data still valid on new data, or must
//     it be re-trained? (staleness)
//
//     go run ./examples/drift
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
	const seed = 99
	w1 := webgen.Generate(webgen.Config{
		Seed: seed, Snapshot: 1, NumLegit: 30, NumIllegit: 170, NetworkSize: 34,
	})
	w2 := webgen.Generate(webgen.Config{
		Seed: seed, Snapshot: 2, NumLegit: 30, NumIllegit: 160,
		IllegitOffset: 170, NetworkSize: 34,
	})
	old, err := dataset.BuildCtx(context.Background(), "Dataset 1", w1, w1.Domains(), w1.Labels(), dataset.BuildOptions{Workers: 16})
	if err != nil {
		log.Fatal(err)
	}
	new_, err := dataset.BuildCtx(context.Background(), "Dataset 2", w2, w2.Domains(), w2.Labels(), dataset.BuildOptions{Workers: 16})
	if err != nil {
		log.Fatal(err)
	}

	// Sanity: the paper's Table 1 properties.
	shared := 0
	ill1 := old.IllegitDomainSet()
	for d := range new_.IllegitDomainSet() {
		if ill1[d] {
			shared++
		}
	}
	fmt.Printf("old: %d pharmacies, new: %d; shared illegitimate domains: %d (paper: 0)\n\n",
		old.Len(), new_.Len(), shared)

	fmt.Println("classifier      AUC  old-old  new-new  old-new | legit precision  old-old  new-new  old-new")
	for _, spec := range []struct {
		clf core.ClassifierKind
		smp core.SamplingKind
	}{
		{core.NBM, core.NoSampling},
		{core.SVM, core.NoSampling},
		{core.J48, core.SMOTE},
	} {
		res, err := core.DriftStudy(old, new_, core.TextConfig{
			Classifier: spec.clf, Sampling: spec.smp, Terms: 500, Seed: 3,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4s %-6s          %.2f     %.2f     %.2f |                     %.2f     %.2f     %.2f\n",
			spec.clf, spec.smp,
			res.AUC[core.OldOld], res.AUC[core.NewNew], res.AUC[core.OldNew],
			res.LegitPrecision[core.OldOld], res.LegitPrecision[core.NewNew], res.LegitPrecision[core.OldNew])
	}

	fmt.Println(`
reading the table (the paper's conclusions):
  * old-old ≈ new-new: the approach is robust — models built on either
    epoch perform alike on their own data;
  * AUC old-new ≈ old-old: rankings stay usable even with a stale model;
  * legitimate precision drops in old-new: drifting illegitimate sites
    start to pass as legitimate, so periodic re-training is required —
    though not frequently.`)
}
