package dataset

import (
	"bytes"
	"context"
	"testing"

	"pharmaverify/internal/webgen"
)

func TestBuildRecordsCrawlStats(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 9, NumLegit: 3, NumIllegit: 6, NetworkSize: 3})
	snap, err := BuildCtx(context.Background(), "stats", w, w.Domains(), w.Labels(), BuildOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := snap.CrawlStats
	if st == nil {
		t.Fatal("Build left CrawlStats nil")
	}
	if st.Attempts != st.Successes+st.Failures {
		t.Errorf("stats do not reconcile: %+v", st)
	}
	var pages int
	for _, p := range snap.Pharmacies {
		pages += p.Pages
	}
	if st.Successes != pages {
		t.Errorf("successes = %d, but snapshot holds %d pages", st.Successes, pages)
	}
	if st.Bytes == 0 {
		t.Error("no bytes recorded")
	}

	// Round-trip: telemetry survives Save/Load.
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.CrawlStats == nil || *loaded.CrawlStats != *st {
		t.Errorf("CrawlStats did not survive the round-trip: %+v vs %+v", loaded.CrawlStats, st)
	}
}

func TestOutboundMemoizedAndStable(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 9, NumLegit: 3, NumIllegit: 6, NetworkSize: 3})
	snap, err := BuildCtx(context.Background(), "memo", w, w.Domains(), w.Labels(), BuildOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := snap.Outbound()
	b := snap.Outbound()
	if len(a) != snap.Len() {
		t.Fatalf("outbound size = %d, want %d", len(a), snap.Len())
	}
	// Memoized: both calls must return the same underlying map (callers
	// treat it as read-only), observable by probing through one view.
	a["__probe__"] = nil
	if _, ok := b["__probe__"]; !ok {
		t.Error("Outbound() is not memoized: views diverge")
	}
	delete(a, "__probe__")
}
