package pharmaverify

import (
	"bytes"
	"context"
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly as the README's
// quick start does: generate a world, crawl it into a snapshot, train a
// verifier and assess the pharmacies.
func TestFacadeEndToEnd(t *testing.T) {
	world := GenerateWorld(WorldConfig{Seed: 5, NumLegit: 12, NumIllegit: 60, NetworkSize: 20})
	snap, err := BuildSnapshotCtx(context.Background(), "facade-test", world, world.Domains(), world.Labels(), BuildOptions{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	legit, illegit := snap.Counts()
	if legit != 12 || illegit != 60 {
		t.Fatalf("counts = %d/%d", legit, illegit)
	}

	v, err := TrainCtx(context.Background(), snap, Options{Classifier: SVM, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	as := v.Assess(snap.Pharmacies)
	if len(as) != snap.Len() {
		t.Fatalf("assessed %d of %d", len(as), snap.Len())
	}

	correct := 0
	for i, a := range as {
		want := snap.Pharmacies[i].Label == 1
		if a.Legitimate == want {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(as)); acc < 0.9 {
		t.Errorf("facade accuracy = %v", acc)
	}

	ranked := RankAssessments(as)
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Rank < ranked[i].Rank {
			t.Fatal("ranking not descending")
		}
	}
}

// TestFacadeModelPersistence ships a trained model through a buffer and
// verifies the restored verifier gives identical verdicts.
func TestFacadeModelPersistence(t *testing.T) {
	world := GenerateWorld(WorldConfig{Seed: 9, NumLegit: 8, NumIllegit: 40, NetworkSize: 20})
	snap, err := BuildSnapshotCtx(context.Background(), "persist", world, world.Domains(), world.Labels(), BuildOptions{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	v, err := TrainCtx(context.Background(), snap, Options{Classifier: NBM, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadVerifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := v.Assess(snap.Pharmacies), restored.Assess(snap.Pharmacies)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assessment %d changed after reload: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDatasetConfigs(t *testing.T) {
	c1, c2 := Dataset1(7), Dataset2(7)
	if c1.NumLegit != 167 || c1.NumIllegit != 1292 {
		t.Errorf("Dataset1 = %+v", c1)
	}
	if c2.NumLegit != 167 || c2.NumIllegit != 1275 || c2.IllegitOffset != 1292 {
		t.Errorf("Dataset2 = %+v", c2)
	}
}
