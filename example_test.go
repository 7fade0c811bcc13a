package pharmaverify_test

import (
	"context"
	"fmt"
	"log"

	"pharmaverify"
)

// Example reproduces the README quick start on a tiny world: generate,
// crawl, train, and rank.
func Example() {
	world := pharmaverify.GenerateWorld(pharmaverify.WorldConfig{
		Seed: 5, NumLegit: 12, NumIllegit: 60, NetworkSize: 20,
	})
	ctx := context.Background()
	snap, err := pharmaverify.BuildSnapshotCtx(ctx, "example", world, world.Domains(), world.Labels(),
		pharmaverify.BuildOptions{Workers: 16})
	if err != nil {
		log.Fatal(err)
	}
	v, err := pharmaverify.TrainCtx(ctx, snap, pharmaverify.Options{Classifier: pharmaverify.SVM, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	ranked := pharmaverify.RankAssessments(v.Assess(snap.Pharmacies))
	top, bottom := ranked[0], ranked[len(ranked)-1]
	fmt.Println(top.Legitimate, bottom.Legitimate)
	// Output: true false
}
