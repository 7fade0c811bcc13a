package dataset

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"pharmaverify/internal/checkpoint"
	"pharmaverify/internal/crawler"
	"pharmaverify/internal/webgen"
)

// snapshotBytes serializes a snapshot the way the CLI does, so
// "byte-identical artifacts" means exactly what an operator would
// compare with cmp(1).
func snapshotBytes(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordingFetcher counts the distinct domains actually fetched, to
// prove a resumed build replays checkpointed domains instead of
// re-crawling them.
type recordingFetcher struct {
	inner crawler.Fetcher
	mu    sync.Mutex
	seen  map[string]bool
}

func (r *recordingFetcher) Fetch(domain, path string) (string, error) {
	r.mu.Lock()
	if r.seen == nil {
		r.seen = map[string]bool{}
	}
	r.seen[domain] = true
	r.mu.Unlock()
	return r.inner.Fetch(domain, path)
}

func (r *recordingFetcher) domains() map[string]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]bool, len(r.seen))
	for d := range r.seen {
		out[d] = true
	}
	return out
}

// TestBuildInterruptResumeByteIdentical is the acceptance test for
// checkpointed resume: a build killed mid-crawl and restarted with the
// same inputs must produce a snapshot byte-identical to an
// uninterrupted build, re-fetching only the domains that had not
// finished.
func TestBuildInterruptResumeByteIdentical(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 21, NumLegit: 4, NumIllegit: 8, NetworkSize: 4})
	domains := w.Domains()
	labels := w.Labels()
	cfg := crawler.Config{}

	reference, err := BuildCtx(context.Background(), "resume", w, domains, labels, BuildOptions{Crawl: cfg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, reference)

	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := BuildOptions{Crawl: cfg, Workers: 2, Checkpoint: store}

	// First run: cancel the build the moment the crawl reaches a domain
	// in the middle of the input, leaving earlier domains checkpointed
	// and later ones untouched.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	target := domains[len(domains)/2]
	tripwire := crawler.FetcherFunc(func(d, p string) (string, error) {
		if d == target {
			once.Do(cancel)
		}
		return w.Fetch(d, p)
	})
	partial, err := BuildCtx(ctx, "resume", tripwire, domains, labels, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted build: err = %v, want context.Canceled", err)
	}
	if partial == nil {
		t.Fatal("interrupted build returned no partial snapshot")
	}
	if partial.CrawlStats == nil || partial.CrawlStats.DomainsMissing == 0 {
		t.Fatal("interrupted build did not record its shortfall in CrawlStats.DomainsMissing")
	}
	if partial.Len() >= len(domains) {
		t.Fatalf("interrupted build has all %d domains; the cancel did not truncate it", len(domains))
	}
	done := store.Count(crawlCheckpointKind)
	if done == 0 || done >= len(domains) {
		t.Fatalf("checkpointed %d of %d domains; want a strict subset", done, len(domains))
	}

	// Second run, same flags: replay the journal, fetch only the rest.
	rec := &recordingFetcher{inner: w}
	resumed, err := BuildCtx(context.Background(), "resume", rec, domains, labels, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, resumed); !bytes.Equal(got, want) {
		t.Errorf("resumed snapshot differs from uninterrupted build:\nresumed: %s\nwant:    %s", got, want)
	}
	if fetched := rec.domains(); len(fetched) != len(domains)-done {
		t.Errorf("resume fetched %d domains, want only the %d unfinished ones (fetched: %v)",
			len(fetched), len(domains)-done, fetched)
	}
}

// TestBuildQuarantineRecompute corrupts checkpoint entries between two
// builds: the store must quarantine the damaged files, the build must
// transparently re-crawl exactly the affected domains, and the final
// snapshot must still be byte-identical.
func TestBuildQuarantineRecompute(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 22, NumLegit: 3, NumIllegit: 6, NetworkSize: 3})
	domains := w.Domains()
	labels := w.Labels()

	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := BuildOptions{Crawl: crawler.Config{}, Workers: 2, Checkpoint: store}

	first, err := BuildCtx(context.Background(), "quar", w, domains, labels, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, first)
	if store.Count(crawlCheckpointKind) != len(domains) {
		t.Fatalf("expected every domain checkpointed, got %d", store.Count(crawlCheckpointKind))
	}

	files, err := filepath.Glob(filepath.Join(dir, crawlCheckpointKind, "*.ckpt"))
	if err != nil || len(files) < 2 {
		t.Fatalf("checkpoint files: %v (err %v)", files, err)
	}
	// Damage one file with a bit flip and another by truncation.
	flip, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	flip[len(flip)/2] ^= 0x01
	if err := os.WriteFile(files[0], flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[1], 10); err != nil {
		t.Fatal(err)
	}

	rec := &recordingFetcher{inner: w}
	second, err := BuildCtx(context.Background(), "quar", rec, domains, labels, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, second); !bytes.Equal(got, want) {
		t.Error("snapshot differs after quarantine + recompute")
	}
	if q := store.Quarantined(); q != 2 {
		t.Errorf("Quarantined() = %d, want 2", q)
	}
	if fetched := rec.domains(); len(fetched) != 2 {
		t.Errorf("recompute fetched %d domains, want exactly the 2 corrupted ones (%v)", len(fetched), fetched)
	}
	quarantined, err := filepath.Glob(filepath.Join(dir, crawlCheckpointKind, "*.quarantined"))
	if err != nil || len(quarantined) != 2 {
		t.Errorf("quarantined files on disk: %v (err %v), want 2", quarantined, err)
	}
	// The damaged entries were recomputed and re-journaled: a third
	// build replays everything from the repaired journal.
	rec2 := &recordingFetcher{inner: w}
	if _, err := BuildCtx(context.Background(), "quar", rec2, domains, labels, opts); err != nil {
		t.Fatal(err)
	}
	if fetched := rec2.domains(); len(fetched) != 0 {
		t.Errorf("post-repair build fetched %d domains, want 0 (%v)", len(fetched), fetched)
	}
}

// TestBuildCancelSameWithAndWithoutStore pins the build's one crawl
// fan-out: a checkpoint store changes what is journaled, never what is
// built. Uninterrupted builds are byte-identical with and without a
// store. A mid-build cancel returns ctx's error, counts every domain
// that did not complete (interrupted or never started) in
// CrawlStats.DomainsMissing, and keeps the same completed domains
// either way.
func TestBuildCancelSameWithAndWithoutStore(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 23, NumLegit: 4, NumIllegit: 8, NetworkSize: 4})
	domains := w.Domains()
	labels := w.Labels()
	newStore := func() *checkpoint.Store {
		store, err := checkpoint.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return store
	}

	plain, err := BuildCtx(context.Background(), "cancel", w, domains, labels, BuildOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	journaled, err := BuildCtx(context.Background(), "cancel", w, domains, labels, BuildOptions{Workers: 2, Checkpoint: newStore()})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, plain), snapshotBytes(t, journaled)) {
		t.Fatal("uninterrupted build differs with a checkpoint store")
	}

	// One worker visits the domains in input order, so the cancel fired
	// from the middle domain's first fetch leaves exactly the earlier
	// domains complete.
	mid := len(domains) / 2
	cancelAtMid := func(store *checkpoint.Store) []byte {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		tripwire := crawler.FetcherFunc(func(d, p string) (string, error) {
			if d == domains[mid] {
				cancel()
			}
			return w.Fetch(d, p)
		})
		snap, err := BuildCtx(ctx, "cancel", tripwire, domains, labels, BuildOptions{Workers: 1, Checkpoint: store})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("store=%v: err = %v, want context.Canceled", store != nil, err)
		}
		if snap.Len() != mid {
			t.Fatalf("store=%v: %d domains completed, want the %d before the cancel", store != nil, snap.Len(), mid)
		}
		if got := snap.CrawlStats.DomainsMissing; got != len(domains)-mid {
			t.Fatalf("store=%v: DomainsMissing = %d, want %d", store != nil, got, len(domains)-mid)
		}
		if store != nil && store.Count(crawlCheckpointKind) != mid {
			t.Fatalf("journaled %d domains, want the %d completed ones", store.Count(crawlCheckpointKind), mid)
		}
		return snapshotBytes(t, snap)
	}
	if !bytes.Equal(cancelAtMid(nil), cancelAtMid(newStore())) {
		t.Error("cancelled build differs with a checkpoint store")
	}

	// Every fetch blocks until the context dies, so the first wave of
	// domains is in flight when the cancel arrives and none completes:
	// the in-flight and the unstarted domains are all missing, and no
	// crawl goroutine outlives the build.
	for _, store := range []*checkpoint.Store{nil, newStore()} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		blocked := crawler.FetcherFunc(func(d, p string) (string, error) {
			<-ctx.Done()
			return "", ctx.Err()
		})
		time.AfterFunc(20*time.Millisecond, cancel)
		snap, err := BuildCtx(ctx, "cancel", blocked, domains, labels, BuildOptions{Workers: 2, Checkpoint: store})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("store=%v: err = %v, want context.Canceled", store != nil, err)
		}
		if snap.Len() != 0 || snap.CrawlStats.DomainsMissing != len(domains) {
			t.Fatalf("store=%v: %d built, %d missing; want 0 built, all %d missing",
				store != nil, snap.Len(), snap.CrawlStats.DomainsMissing, len(domains))
		}
		if store != nil && store.Count(crawlCheckpointKind) != 0 {
			t.Fatalf("journaled %d interrupted domains", store.Count(crawlCheckpointKind))
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("store=%v: %d goroutines alive after the build, want <= %d",
					store != nil, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
