package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"pharmaverify/internal/eval"
)

// TestTextCVParallelDeterministic pins the tentpole guarantee on the
// real pipeline: both text representations produce identical CVResults
// at Workers=1 and at many workers, including the SMOTE configuration
// whose sampler consumes the shared master RNG stream.
func TestTextCVParallelDeterministic(t *testing.T) {
	snap := testSnapshot(t, 1)
	many := runtime.GOMAXPROCS(0)
	if many < 4 {
		many = 4
	}
	cases := []TextConfig{
		{Representation: TFIDF, Classifier: SVM, Terms: 250, Seed: 11},
		{Representation: TFIDF, Classifier: J48, Sampling: SMOTE, Terms: 100, Seed: 11},
		{Representation: NGramGraphs, Classifier: NB, Terms: 100, Seed: 11},
	}
	for _, cfg := range cases {
		seqCfg, parCfg := cfg, cfg
		seqCfg.Workers = 1
		parCfg.Workers = many
		seq, err := TextCV(snap, seqCfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := TextCV(snap, parCfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s/%s/%s: CVResult differs between Workers=1 and Workers=%d",
				cfg.Representation, cfg.Classifier, cfg.Sampling, many)
		}
	}
}

// TestEnsembleCVParallelDeterministic covers the parallel-library leg:
// concurrent member training and concurrent folds must reproduce the
// sequential ensemble results exactly.
func TestEnsembleCVParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("ensemble CV is slow")
	}
	snap := testSnapshot(t, 1)
	run := func(workers int) eval.CVResult {
		res, err := EnsembleCVCtx(context.Background(), snap, EnsembleConfig{Terms: 100, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("EnsembleCVCtx differs between Workers=1 and Workers=8")
	}
}

// TestFeatureCacheDistinctSnapshots is the regression test for the
// pointer-keyed memo bug: two snapshots with different contents must
// never share a cached feature artifact, while regenerating the same
// content must hit the same entry.
func TestFeatureCacheDistinctSnapshots(t *testing.T) {
	snapA := testSnapshot(t, 1)
	snapB := testSnapshot(t, 2)
	if snapA.ContentHash() == snapB.ContentHash() {
		t.Fatal("distinct snapshots share a content hash")
	}

	ResetFeatureCache()
	cfg := TextConfig{Classifier: SVM, Terms: 100, Seed: 3}
	dsA := TFIDFDataset(snapA, cfg)
	dsB := TFIDFDataset(snapB, cfg)
	if dsA == dsB {
		t.Fatal("distinct snapshots share one cached dataset")
	}
	if reflect.DeepEqual(dsA.X, dsB.X) {
		t.Fatal("distinct snapshots produced identical feature vectors")
	}

	// Same content → same entry (pointer-identical memo hit).
	if again := TFIDFDataset(snapA, cfg); again != dsA {
		t.Error("same snapshot missed the cache")
	}
	ngA := nggFoldFeatures(snapA, 100, 3, 3, 0)
	ngB := nggFoldFeatures(snapB, 100, 3, 3, 0)
	if ngA == ngB {
		t.Fatal("distinct snapshots share one cached NGG fold set")
	}
	if hits, misses, _ := FeatureCacheStats(); hits == 0 || misses == 0 {
		t.Errorf("cache stats implausible: hits=%d misses=%d", hits, misses)
	}
}
