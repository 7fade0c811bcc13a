package dataset

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"pharmaverify/internal/ml"
	"pharmaverify/internal/webgen"
)

func buildSmall(t *testing.T, seed int64) (*Snapshot, *webgen.World) {
	t.Helper()
	w := webgen.Generate(webgen.Config{Seed: seed, NumLegit: 5, NumIllegit: 15, NetworkSize: 5})
	snap, err := BuildCtx(context.Background(), "test", w, w.Domains(), w.Labels(), BuildOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return snap, w
}

func TestBuildCounts(t *testing.T) {
	snap, _ := buildSmall(t, 1)
	legit, illegit := snap.Counts()
	if legit != 5 || illegit != 15 {
		t.Errorf("counts = %d/%d", legit, illegit)
	}
	if snap.Len() != 20 {
		t.Errorf("len = %d", snap.Len())
	}
}

func TestBuildContent(t *testing.T) {
	snap, w := buildSmall(t, 2)
	for _, p := range snap.Pharmacies {
		if len(p.Terms) == 0 {
			t.Errorf("%s has no terms", p.Domain)
		}
		if p.Pages == 0 {
			t.Errorf("%s has no pages", p.Domain)
		}
		site := w.Site(p.Domain)
		if site == nil {
			t.Fatalf("unknown domain %s", p.Domain)
		}
		wantLabel := ml.Illegitimate
		if site.Legitimate {
			wantLabel = ml.Legitimate
		}
		if p.Label != wantLabel {
			t.Errorf("%s label mismatch", p.Domain)
		}
		// No stop words survive preprocessing.
		for _, term := range p.Terms[:min(len(p.Terms), 200)] {
			if term == "the" || term == "and" {
				t.Fatalf("%s: stop word %q survived", p.Domain, term)
			}
		}
	}
}

func TestBuildOutboundEndpoints(t *testing.T) {
	snap, w := buildSmall(t, 3)
	anyExternal := false
	for _, p := range snap.Pharmacies {
		for _, ep := range p.Outbound {
			anyExternal = true
			if ep == p.Domain {
				t.Errorf("%s lists itself as outbound", p.Domain)
			}
			if w.Site(ep) == nil {
				// Endpoint outside the generated pharmacy set is fine
				// (fda.gov etc.) — just check it looks like a domain.
				if len(ep) < 4 {
					t.Errorf("implausible endpoint %q", ep)
				}
			}
		}
	}
	if !anyExternal {
		t.Error("no outbound endpoints extracted at all")
	}
}

func TestBuildMissingLabel(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 4, NumLegit: 2, NumIllegit: 2, NetworkSize: 2})
	if _, err := BuildCtx(context.Background(), "x", w, w.Domains(), map[string]int{}, BuildOptions{Workers: 2}); err == nil {
		t.Error("missing labels must error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	snap, _ := buildSmall(t, 5)
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Error("round trip changed snapshot")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{nope")); err == nil {
		t.Error("garbage must error")
	}
}

func TestSubsampledTerms(t *testing.T) {
	snap, _ := buildSmall(t, 6)
	sub := snap.SubsampledTerms(10, 42)
	if len(sub) != snap.Len() {
		t.Fatal("wrong length")
	}
	for i, terms := range sub {
		want := 10
		if len(snap.Pharmacies[i].Terms) < 10 {
			want = len(snap.Pharmacies[i].Terms)
		}
		if len(terms) != want {
			t.Errorf("pharmacy %d subsample len = %d, want %d", i, len(terms), want)
		}
	}
	// Determinism.
	again := snap.SubsampledTerms(10, 42)
	if !reflect.DeepEqual(sub, again) {
		t.Error("subsample not deterministic")
	}
	// k=0 keeps all.
	all := snap.SubsampledTerms(0, 42)
	for i := range all {
		if len(all[i]) != len(snap.Pharmacies[i].Terms) {
			t.Error("k=0 must keep all terms")
		}
	}
}

func TestSnapshotAccessors(t *testing.T) {
	snap, _ := buildSmall(t, 7)
	if len(snap.Labels()) != snap.Len() || len(snap.Domains()) != snap.Len() {
		t.Error("accessor lengths wrong")
	}
	ob := snap.Outbound()
	if len(ob) != snap.Len() {
		t.Error("outbound map wrong size")
	}
	ill := snap.IllegitDomainSet()
	_, illegit := snap.Counts()
	if len(ill) != illegit {
		t.Error("IllegitDomainSet size mismatch")
	}
}

func TestSnapshotsDisjointIllegitimate(t *testing.T) {
	w1 := webgen.Generate(webgen.Config{Seed: 8, Snapshot: 1, NumLegit: 4, NumIllegit: 10, NetworkSize: 5})
	w2 := webgen.Generate(webgen.Config{Seed: 8, Snapshot: 2, NumLegit: 4, NumIllegit: 8, IllegitOffset: 10, NetworkSize: 5})
	s1, err := BuildCtx(context.Background(), "d1", w1, w1.Domains(), w1.Labels(), BuildOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := BuildCtx(context.Background(), "d2", w2, w2.Domains(), w2.Labels(), BuildOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ill1 := s1.IllegitDomainSet()
	for d := range s2.IllegitDomainSet() {
		if ill1[d] {
			t.Errorf("illegitimate domain %s shared between snapshots", d)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
