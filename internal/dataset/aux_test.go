package dataset

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"pharmaverify/internal/webgen"
)

func TestBuildWithAux(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 20, NumLegit: 6, NumIllegit: 18, NetworkSize: 6})
	dirs := w.GenerateDirectories(2, 1)
	auxDomains := w.AttachDirectories(dirs)

	snap, err := BuildCtx(context.Background(), "aux", w, w.Domains(), w.Labels(), BuildOptions{Workers: 4, Aux: auxDomains})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Aux) != 3 {
		t.Fatalf("aux = %d, want 3", len(snap.Aux))
	}
	pharmDomains := map[string]bool{}
	for _, p := range snap.Pharmacies {
		pharmDomains[p.Domain] = true
	}
	linksToPharmacies := false
	for _, a := range snap.Aux {
		if a.Pages == 0 {
			t.Errorf("aux %s crawled no pages", a.Domain)
		}
		for _, ep := range a.Outbound {
			if pharmDomains[ep] {
				linksToPharmacies = true
			}
		}
	}
	if !linksToPharmacies {
		t.Error("no aux site links any pharmacy — inbound analysis would be vacuous")
	}

	ob := snap.AuxOutbound()
	if len(ob) != 3 {
		t.Errorf("AuxOutbound size = %d", len(ob))
	}
}

func TestAuxSurvivesSerialization(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 21, NumLegit: 4, NumIllegit: 8, NetworkSize: 4})
	auxDomains := w.AttachDirectories(w.GenerateDirectories(1, 1))
	snap, err := BuildCtx(context.Background(), "aux-io", w, w.Domains(), w.Labels(), BuildOptions{Workers: 2, Aux: auxDomains})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Aux, got.Aux) {
		t.Error("aux sites lost in round trip")
	}
}

func TestBuildWithoutAuxHasNone(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 22, NumLegit: 3, NumIllegit: 6, NetworkSize: 3})
	snap, err := BuildCtx(context.Background(), "plain", w, w.Domains(), w.Labels(), BuildOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Aux) != 0 {
		t.Errorf("unexpected aux sites: %d", len(snap.Aux))
	}
}
