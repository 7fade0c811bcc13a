package crawler

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"pharmaverify/internal/webgen"
)

// faultWorld builds a small synthetic web shared by the fault tests.
func faultWorld() *webgen.World {
	return webgen.Generate(webgen.Config{Seed: 7, NumLegit: 4, NumIllegit: 8, NetworkSize: 4})
}

func TestFaultInjectorDeterministic(t *testing.T) {
	w := faultWorld()
	cfg := FaultConfig{Seed: 99, TransientRate: 0.3}
	d := w.Domains()[0]
	probe := func() []bool {
		fi := NewFaultInjector(w, cfg)
		var outcomes []bool
		for attempt := 0; attempt < 4; attempt++ {
			for _, p := range w.Site(d).Paths {
				_, err := fi.Fetch(d, p)
				outcomes = append(outcomes, err == nil)
			}
		}
		return outcomes
	}
	if a, b := probe(), probe(); !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different fault patterns")
	}
	diff := NewFaultInjector(w, FaultConfig{Seed: 100, TransientRate: 0.3})
	same := true
	fi := NewFaultInjector(w, cfg)
	for _, p := range w.Site(d).Paths {
		_, e1 := fi.Fetch(d, p)
		_, e2 := diff.Fetch(d, p)
		if (e1 == nil) != (e2 == nil) {
			same = false
		}
	}
	if same {
		t.Log("different seeds happened to agree on this small sample (not fatal)")
	}
}

// TestCrawlRecoversFromTransientFaults is the acceptance test of the
// resilient crawl engine: with seeded 30% transient fetch failures and
// retries enabled, the crawl recovers ≥99% of what a clean crawl
// yields, stays within the retry budget, and keeps its counters
// reconciled.
func TestCrawlRecoversFromTransientFaults(t *testing.T) {
	w := faultWorld()
	const maxAttempts = 6
	cleanPages, faultyPages := 0, 0
	for _, d := range w.Domains() {
		clean := CrawlCtx(context.Background(), w, d, Config{})
		flaky := NewFaultInjector(w, FaultConfig{Seed: 99, TransientRate: 0.3})
		faulty := CrawlCtx(context.Background(), flaky, d, Config{
			Retry: RetryConfig{MaxAttempts: maxAttempts, BaseDelay: time.Microsecond, Seed: 99},
		})

		cleanSet := map[string]bool{}
		for _, p := range clean.Pages {
			cleanSet[p.Path] = true
		}
		for _, p := range faulty.Pages {
			if !cleanSet[p.Path] {
				t.Errorf("%s: faulty crawl found %s, absent from clean crawl", d, p.Path)
			}
		}
		cleanPages += len(clean.Pages)
		faultyPages += len(faulty.Pages)

		st := faulty.Stats
		if st.Attempts != st.Successes+st.Failures {
			t.Errorf("%s: attempts(%d) != successes(%d)+failures(%d)", d, st.Attempts, st.Successes, st.Failures)
		}
		if faulty.Fetched != st.Attempts || faulty.Failed != st.Failures {
			t.Errorf("%s: Result counters diverge from Stats: %+v vs fetched=%d failed=%d",
				d, st, faulty.Fetched, faulty.Failed)
		}
		if cap := DefaultMaxPages * maxAttempts; st.Attempts > cap {
			t.Errorf("%s: %d attempts exceed MaxPages×MaxAttempts = %d", d, st.Attempts, cap)
		}
		if st.Retries == 0 {
			t.Errorf("%s: no retries recorded under 30%% transient faults", d)
		}
	}
	if float64(faultyPages) < 0.99*float64(cleanPages) {
		t.Errorf("recovered %d/%d pages (<99%%) under 30%% transient faults", faultyPages, cleanPages)
	}
}

func TestCrawlRecoveryDeterministicUnderFaults(t *testing.T) {
	w := faultWorld()
	d := w.Domains()[1]
	run := func() Result {
		flaky := NewFaultInjector(w, FaultConfig{Seed: 5, TransientRate: 0.3})
		return CrawlCtx(context.Background(), flaky, d, Config{Workers: 8, Retry: RetryConfig{MaxAttempts: 6}})
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Pages, b.Pages) || !reflect.DeepEqual(a.External, b.External) {
		t.Error("faulty crawl output is not reproducible for a fixed fault seed")
	}
}

func TestCrawlPermanentFaultsDegradeGracefully(t *testing.T) {
	w := faultWorld()
	d := w.Domains()[2]
	flaky := NewFaultInjector(w, FaultConfig{Seed: 3, PermanentRate: 0.2})
	r := CrawlCtx(context.Background(), flaky, d, Config{Retry: RetryConfig{MaxAttempts: 4}})
	st := flaky.Stats()
	if st.Permanent > 0 && r.Stats.Retries != 0 {
		t.Errorf("permanently broken pages were retried: %+v", r.Stats)
	}
	if len(r.Pages) == 0 {
		t.Error("crawl collected nothing despite most pages being healthy")
	}
	if r.Stats.PagesFailed == 0 && st.Permanent > 0 {
		t.Errorf("injected %d permanent faults but PagesFailed = 0", st.Permanent)
	}
}

// TestCrawlStatsReconcileWithInjector sums the telemetry of a flaky
// crawl over a whole world and checks it against the injector's own
// count of the attempts it served.
func TestCrawlStatsReconcileWithInjector(t *testing.T) {
	w := faultWorld()
	flaky := NewFaultInjector(w, FaultConfig{Seed: 42, TransientRate: 0.3})
	var total Stats
	for _, d := range w.Domains() {
		total.Add(CrawlCtx(context.Background(), flaky, d, Config{Retry: RetryConfig{MaxAttempts: 6}}).Stats)
	}
	if total.Attempts != total.Successes+total.Failures {
		t.Errorf("aggregate stats do not reconcile: %+v", total)
	}
	inj := flaky.Stats()
	if int64(total.Attempts+total.RobotsAttempts) != inj.Attempts {
		t.Errorf("crawler counted %d attempts (pages+robots), injector saw %d",
			total.Attempts+total.RobotsAttempts, inj.Attempts)
	}
	if total.Retries == 0 || total.Bytes == 0 {
		t.Errorf("aggregate telemetry looks empty: %+v", total)
	}
}

// TestFaultInjectorLatencySpikesDeterministic: with SpikeRate 1 every
// attempt pays the injected latency, and two injectors with the same
// seed spike the same attempts.
func TestFaultInjectorLatencySpikesDeterministic(t *testing.T) {
	w := faultWorld()
	d := w.Domains()[0]
	fi := NewFaultInjector(w, FaultConfig{Seed: 5, LatencySpike: 5 * time.Millisecond, SpikeRate: 1})
	start := time.Now()
	if _, err := fi.Fetch(d, "/"); err != nil {
		t.Fatalf("spiked fetch failed: %v", err)
	}
	if took := time.Since(start); took < 5*time.Millisecond {
		t.Errorf("fetch took %v, spike of 5ms not applied", took)
	}
	if got := fi.Stats().Spikes; got != 1 {
		t.Errorf("Spikes = %d, want 1", got)
	}

	// Partial rate: the set of spiked attempts is a pure function of the
	// seed, independent of injector instance.
	spikedBy := func(seed int64) []bool {
		in := NewFaultInjector(w, FaultConfig{Seed: seed, LatencySpike: time.Microsecond, SpikeRate: 0.4})
		var pattern []bool
		for _, p := range w.Site(d).Paths {
			before := in.Stats().Spikes
			in.Fetch(d, p)
			pattern = append(pattern, in.Stats().Spikes > before)
		}
		return pattern
	}
	if a, b := spikedBy(77), spikedBy(77); !reflect.DeepEqual(a, b) {
		t.Error("same seed spiked different attempts")
	}
}

// TestFaultInjectorLatencySpikeCancellable: an expiring context cuts an
// injected latency spike short — the attempt fails with the context
// error instead of sleeping through the spike.
func TestFaultInjectorLatencySpikeCancellable(t *testing.T) {
	w := faultWorld()
	d := w.Domains()[0]
	fi := NewFaultInjector(w, FaultConfig{Seed: 5, LatencySpike: time.Minute, SpikeRate: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := fi.FetchCtx(ctx, d, "/")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context deadline", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("cancelled spike still slept %v", took)
	}
}

// TestFaultInjectorUnboundedHang: with HangFor zero a hung FetchCtx
// blocks until its context is cancelled — the pathological peer that
// neither answers nor closes — and then returns promptly with the
// context error. A context-free Fetch never receives unbounded hangs
// (it would block forever).
func TestFaultInjectorUnboundedHang(t *testing.T) {
	w := faultWorld()
	d := w.Domains()[0]
	fi := NewFaultInjector(w, FaultConfig{Seed: 5, HangRate: 1})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := fi.FetchCtx(ctx, d, "/")
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("hung fetch returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("hung fetch returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled hang never returned")
	}
	if got := fi.Stats().Hangs; got != 1 {
		t.Errorf("Hangs = %d, want 1", got)
	}

	// The context-free path skips unbounded hangs entirely.
	if _, err := fi.Fetch(d, "/"); err != nil {
		t.Errorf("context-free fetch under HangFor=0 failed: %v", err)
	}
	if got := fi.Stats().Hangs; got != 1 {
		t.Errorf("Hangs = %d after context-free fetch, want still 1", got)
	}
}

// TestFaultInjectorBoundedHang: with HangFor set, a hang resolves on
// its own after that long — as a transient failure on the context-free
// path, so the retry machinery treats a slow-dying connection exactly
// like any other flaky attempt.
func TestFaultInjectorBoundedHang(t *testing.T) {
	w := faultWorld()
	d := w.Domains()[0]
	fi := NewFaultInjector(w, FaultConfig{Seed: 5, HangRate: 1, HangFor: 5 * time.Millisecond})
	start := time.Now()
	_, err := fi.Fetch(d, "/")
	if err == nil {
		t.Fatal("bounded hang did not fail the attempt")
	}
	if IsPermanent(err) {
		t.Errorf("bounded hang classified permanent: %v", err)
	}
	if took := time.Since(start); took < 5*time.Millisecond {
		t.Errorf("hang resolved after %v, want >= HangFor", took)
	}
	if got := fi.Stats().Hangs; got != 1 {
		t.Errorf("Hangs = %d, want 1", got)
	}
}
