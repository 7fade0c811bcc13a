package core

import (
	"context"
	"math"
	"testing"

	"pharmaverify/internal/dataset"
	"pharmaverify/internal/webgen"
)

// auxSnapshot builds a small snapshot that carries auxiliary directory
// sites, so IncludeAuxiliary actually merges something.
func auxSnapshot(t testing.TB) *dataset.Snapshot {
	t.Helper()
	w := webgen.Generate(webgen.Config{
		Seed: 17, NumLegit: 12, NumIllegit: 48, NetworkSize: 12,
	})
	dirs := w.GenerateDirectories(2, 2)
	auxDomains := w.AttachDirectories(dirs)
	snap, err := dataset.BuildCtx(context.Background(), "aux-test", w, w.Domains(), w.Labels(), dataset.BuildOptions{Workers: 8, Aux: auxDomains})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func trainSeeds(snap *dataset.Snapshot) map[string]float64 {
	seeds := map[string]float64{}
	for _, p := range snap.Pharmacies {
		if p.Label == 1 {
			seeds[p.Domain] = 1
		}
	}
	return seeds
}

// TestNetworkScoresDoesNotMutateSnapshot is the regression test for the
// snapshot-aliasing bug: NetworkScores with IncludeAuxiliary used to
// write auxiliary endpoints straight into the shared map returned by
// snap.Outbound(), so a second call saw a polluted link graph.
func TestNetworkScoresDoesNotMutateSnapshot(t *testing.T) {
	snap := auxSnapshot(t)
	seeds := trainSeeds(snap)
	cfg := NetworkConfig{IncludeAuxiliary: true}

	first, err := NetworkScores(snap, seeds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The shared outbound map must still describe pharmacies only.
	outbound := snap.Outbound()
	if len(outbound) != snap.Len() {
		t.Fatalf("snap.Outbound() grew to %d entries after NetworkScores (want %d)",
			len(outbound), snap.Len())
	}
	for _, a := range snap.Aux {
		if _, ok := outbound[a.Domain]; ok {
			t.Errorf("auxiliary domain %s leaked into snap.Outbound()", a.Domain)
		}
	}

	second, err := NetworkScores(snap, seeds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("score lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if math.Abs(first[i]-second[i]) > 1e-12 {
			t.Fatalf("scores diverge at %d: %g vs %g (snapshot link graph was mutated)",
				i, first[i], second[i])
		}
	}

	// And the aux-free configuration must be unaffected by prior
	// auxiliary runs.
	plain, err := NetworkScores(snap, seeds, NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != snap.Len() {
		t.Fatalf("plain scores length %d, want %d", len(plain), snap.Len())
	}
}

func TestNetworkScoresAuxiliaryChangesScores(t *testing.T) {
	// Sanity check that IncludeAuxiliary actually feeds the graph: the
	// isolated legitimate pharmacies listed by health portals should
	// gain trust relative to the base run.
	snap := auxSnapshot(t)
	seeds := trainSeeds(snap)
	base, err := NetworkScores(snap, seeds, NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aux, err := NetworkScores(snap, seeds, NetworkConfig{IncludeAuxiliary: true})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range base {
		if math.Abs(base[i]-aux[i]) > 1e-12 {
			same = false
			break
		}
	}
	if same {
		t.Error("IncludeAuxiliary had no effect on any score")
	}
}
