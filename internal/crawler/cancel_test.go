package crawler

import (
	"context"
	"runtime"
	"testing"
	"time"

	"pharmaverify/internal/webgen"
)

// waitGoroutines waits for the goroutine count to drop back to at most
// want, failing with a full stack dump if it doesn't: any goroutine the
// crawl leaks (a worker stuck in cond.Wait, a watcher never released)
// is still alive seconds after CrawlCtx returned.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d alive, want <= %d\n%s", runtime.NumGoroutine(), want, buf[:n])
}

// TestCancelMidBackoffLatency is the acceptance test for cancellation
// latency: with every fetch failing transiently and a 30-second backoff
// between attempts, a cancel issued mid-backoff must return the crawl
// within one timer tick — not after sleeping out the backoff.
func TestCancelMidBackoffLatency(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 3, NumLegit: 2, NumIllegit: 2, NetworkSize: 2})
	fi := NewFaultInjector(w, FaultConfig{Seed: 11, TransientRate: 1}) // every attempt fails
	cfg := Config{
		IgnoreRobots: true,
		Workers:      2,
		Retry: RetryConfig{
			MaxAttempts: 100,
			BaseDelay:   30 * time.Second,
			MaxDelay:    30 * time.Second,
			Jitter:      -1,
		},
	}

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)

	start := time.Now()
	r := CrawlCtx(ctx, fi, w.Domains()[0], cfg)
	elapsed := time.Since(start)

	// The workers were asleep in a 30s backoff when the cancel fired;
	// anything close to the backoff duration means the sleep was not
	// interrupted. The 3s bound is three orders of magnitude slack for
	// a loaded CI machine.
	if elapsed > 3*time.Second {
		t.Fatalf("CrawlCtx took %v to honor a cancel issued at 50ms (backoff is 30s)", elapsed)
	}
	if r.Stats.Cancels != 1 {
		t.Errorf("Stats.Cancels = %d, want 1 for an interrupted crawl", r.Stats.Cancels)
	}
	if len(r.Pages) != 0 {
		t.Errorf("got %d pages from an all-failing fetcher", len(r.Pages))
	}
	waitGoroutines(t, baseline)
}

func TestCrawlCtxPrecanceled(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 5, NumLegit: 2, NumIllegit: 2, NetworkSize: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := CrawlCtx(ctx, w, w.Domains()[0], Config{})
	if r.Stats.Cancels != 1 {
		t.Errorf("Stats.Cancels = %d, want 1", r.Stats.Cancels)
	}
	if len(r.Pages) != 0 {
		t.Errorf("pre-cancelled crawl collected %d pages", len(r.Pages))
	}
}

// TestCrawlCtxDeadlinePartial checks graceful degradation under a
// deadline: the crawl stops early, keeps the pages collected so far and
// marks the result as interrupted.
func TestCrawlCtxDeadlinePartial(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 7, NumLegit: 2, NumIllegit: 2, NetworkSize: 2})
	domain := w.Domains()[0]
	full := CrawlCtx(context.Background(), w, domain, Config{IgnoreRobots: true})
	if len(full.Pages) < 3 {
		t.Fatalf("synthetic site too small (%d pages) for a partial-crawl test", len(full.Pages))
	}

	slow := FetcherFunc(func(d, p string) (string, error) {
		time.Sleep(5 * time.Millisecond)
		return w.Fetch(d, p)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	r := CrawlCtx(ctx, slow, domain, Config{IgnoreRobots: true, Workers: 2})
	if r.Stats.Cancels != 1 {
		t.Errorf("Stats.Cancels = %d, want 1 after deadline expiry", r.Stats.Cancels)
	}
	if len(r.Pages) >= len(full.Pages) {
		t.Errorf("deadline-bounded crawl got all %d pages; expected a partial result", len(full.Pages))
	}
}
