package reverify

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"pharmaverify/internal/core"
	"pharmaverify/internal/dataset"
	"pharmaverify/internal/serve"
	"pharmaverify/internal/webgen"
)

// TestPipelineOverLiveServer runs one sweep against a real serve.Server
// over a synthetic world: corpus domains get re-verified through the
// actual crawl→fuse pipeline, their verdicts land in the cache, and the
// pipeline's gauges render on the server's own /metrics endpoint.
func TestPipelineOverLiveServer(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 11, NumLegit: 6, NumIllegit: 12, NetworkSize: 8})
	snap, err := dataset.BuildCtx(context.Background(), "reverify-test", world, world.Domains(), world.Labels(), dataset.BuildOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Train(snap, core.Options{Classifier: core.NBM, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(model, serve.Config{Fetcher: world})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	seed := world.Domains()[:4]
	if n := srv.AddCorpusDomains(seed); n != len(seed) {
		t.Fatalf("seeded %d corpus domains, want %d", n, len(seed))
	}

	p := New(srv, Config{MaxSweeps: 1, Logf: t.Logf})
	srv.RegisterMetrics(p.WriteMetrics)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p.Sweeps() != 1 {
		t.Fatalf("Sweeps = %d, want 1", p.Sweeps())
	}
	if got := p.met.domainsOK.Load(); got != uint64(len(seed)) {
		t.Fatalf("re-verified %d domains, want %d", got, len(seed))
	}
	if term, _, n, ok := p.drift.scores(); !ok || n != len(seed) {
		t.Fatalf("drift window: n=%d ok=%v (term %v)", n, ok, term)
	}

	// The sweep's verdicts serve live traffic: /metrics shows the drift
	// gauges (via the RegisterMetrics hook) and the corpus gauge.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"pharmaverify_drift_term_score",
		"pharmaverify_drift_link_score",
		"pharmaverify_reverify_sweeps_total 1",
		"pharmaverify_corpus_domains 4",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// sweepDrift trains a model on the before world, sweeps the given world
// through a live server, and returns the resulting drift scores.
func sweepDrift(t *testing.T, trainWorld, liveWorld *webgen.World) (term, link float64) {
	t.Helper()
	snap, err := dataset.BuildCtx(context.Background(), "drift-test", trainWorld, trainWorld.Domains(), trainWorld.Labels(), dataset.BuildOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Train(snap, core.Options{Classifier: core.NBM, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(model, serve.Config{Fetcher: liveWorld})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.AddCorpusDomains(liveWorld.Domains())

	p := New(srv, Config{MaxSweeps: 1, Logf: t.Logf})
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	term, link, _, ok := p.drift.scores()
	if !ok {
		t.Fatal("drift baseline missing")
	}
	return term, link
}

// TestDriftScoresRiseOnDriftedWorld closes the loop between webgen's
// epoch-drift knobs and the drift monitor: sweeping a DriftedPair's
// after world (vocabulary restyled, link farms churned) must score
// measurably more term and link drift than re-sweeping the training
// epoch itself.
func TestDriftScoresRiseOnDriftedWorld(t *testing.T) {
	before, after := webgen.DriftedPair(webgen.Config{
		Seed: 11, NumLegit: 6, NumIllegit: 12, NetworkSize: 6,
		VocabShift: 0.8, LinkChurn: 0.8, BurstFraction: 0.5,
	})
	baseTerm, baseLink := sweepDrift(t, before, before)
	driftTerm, driftLink := sweepDrift(t, before, after)
	if driftTerm <= baseTerm {
		t.Fatalf("term drift did not rise: base %.4f, drifted %.4f", baseTerm, driftTerm)
	}
	if driftLink <= baseLink+0.05 {
		t.Fatalf("link drift did not rise: base %.4f, drifted %.4f", baseLink, driftLink)
	}
}
