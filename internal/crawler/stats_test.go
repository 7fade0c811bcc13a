package crawler

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestStatsCloneNil(t *testing.T) {
	var s *Stats
	if s.Clone() != nil {
		t.Error("Clone of nil Stats must be nil")
	}
}

func TestStatsCloneIndependent(t *testing.T) {
	s := &Stats{Attempts: 3, Bytes: 100, RobotsUnreachable: true}
	c := s.Clone()
	if *c != *s {
		t.Fatalf("Clone() = %+v, want %+v", *c, *s)
	}
	c.Attempts = 99
	c.Bytes = 0
	if s.Attempts != 3 || s.Bytes != 100 {
		t.Error("mutating the clone leaked into the original")
	}
}

// TestAggregatorConcurrent is the -race witness for the serving path's
// process-wide crawl counters: many goroutines fold per-request stats
// into one Aggregator while others take snapshots.
func TestAggregatorConcurrent(t *testing.T) {
	var agg Aggregator
	const (
		writers = 8
		perG    = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				agg.Add(Stats{Attempts: 2, Successes: 1, Failures: 1, Bytes: 10})
			}
		}()
	}
	// Concurrent readers: each snapshot must be internally consistent
	// (Attempts = Successes + Failures at every point).
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				st, _ := agg.Snapshot()
				if st.Attempts != st.Successes+st.Failures {
					t.Errorf("torn snapshot: %d attempts vs %d+%d", st.Attempts, st.Successes, st.Failures)
					return
				}
			}
		}()
	}
	wg.Wait()
	st, crawls := agg.Snapshot()
	if want := writers * perG; crawls != want {
		t.Errorf("crawls = %d, want %d", crawls, want)
	}
	if want := writers * perG * 2; st.Attempts != want {
		t.Errorf("attempts = %d, want %d", st.Attempts, want)
	}
	if want := int64(writers * perG * 10); st.Bytes != want {
		t.Errorf("bytes = %d, want %d", st.Bytes, want)
	}
}

func TestCrawlAttemptBudget(t *testing.T) {
	// A 50-page chain with an attempt budget of 5 and no retries: the
	// crawl must stop after exactly 5 fetch attempts (workers reserve
	// one attempt per in-flight page, so a single-attempt retry policy
	// cannot overshoot) and degrade to the pages it collected.
	f := mapFetcher{"x.com|/": `<a href="/p0">start</a>`}
	for i := 0; i < 50; i++ {
		f[fmt.Sprintf("x.com|/p%d", i)] = fmt.Sprintf(`<a href="/p%d">next</a><p>n</p>`, i+1)
	}
	for _, workers := range []int{1, 4} {
		r := CrawlCtx(context.Background(), f, "x.com", Config{Workers: workers, AttemptBudget: 5})
		if r.Stats.Attempts > 5 {
			t.Errorf("workers=%d: %d attempts, budget 5", workers, r.Stats.Attempts)
		}
		if len(r.Pages) == 0 {
			t.Errorf("workers=%d: budgeted crawl collected no pages", workers)
		}
		if len(r.Pages) > 5 {
			t.Errorf("workers=%d: %d pages from at most 5 attempts", workers, len(r.Pages))
		}
	}
}

func TestCrawlAttemptBudgetZeroUnlimited(t *testing.T) {
	f := mapFetcher{"x.com|/": `<a href="/a">a</a><a href="/b">b</a>`,
		"x.com|/a": `<p>a</p>`, "x.com|/b": `<p>b</p>`}
	r := CrawlCtx(context.Background(), f, "x.com", Config{Workers: 2})
	if len(r.Pages) != 3 {
		t.Errorf("unbudgeted crawl got %d pages, want 3", len(r.Pages))
	}
}
