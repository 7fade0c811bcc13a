package main

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pharmaverify/internal/crawler"
)

// span is one timed interval at a layer boundary. Spans of one request
// (or one replayed study) share Trace; Parent is the ID of the span that
// caused this one (0 for a root). Times are nanoseconds since the
// tracer's epoch.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// active maps a domain to the handler span currently serving it, so
	// fetches (which carry no context) find their parent.
	active sync.Map // string -> spanRef
}

type spanRef struct{ trace, id uint64 }

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) id() uint64 { return t.nextID.Add(1) }
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// Request headers the load generator sets so the handler span joins the
// client's trace.
const (
	hdrTrace  = "X-Bench-Trace"
	hdrParent = "X-Bench-Parent"
	hdrDomain = "X-Bench-Domain"
)

// handler wraps the daemon handler with a "serve.handler" span around
// each call of a traced request (one carrying a trace header).
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, err := strconv.ParseUint(r.Header.Get(hdrTrace), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		ref := spanRef{trace: trace, id: t.id()}
		if d := r.Header.Get(hdrDomain); d != "" {
			t.active.Store(d, ref)
			defer t.active.CompareAndDelete(d, ref)
		}
		start := t.now()
		next.ServeHTTP(w, r)
		t.add(span{Trace: trace, ID: ref.id, Parent: parent, Name: "serve.handler", Start: start, End: t.now()})
	})
}

// fetcher is a crawler.Fetcher that records a "crawler.fetch" span
// around every page fetch the wrapped fetcher serves for a traced
// request, parented to the handler span serving the domain.
type fetcher struct {
	inner crawler.Fetcher
	t     *tracer
}

func (f fetcher) Fetch(domain, path string) (string, error) {
	v, ok := f.t.active.Load(domain)
	if !ok {
		return f.inner.Fetch(domain, path)
	}
	ref := v.(spanRef)
	start := f.t.now()
	html, err := f.inner.Fetch(domain, path)
	f.t.add(span{Trace: ref.trace, ID: f.t.id(), Parent: ref.id, Name: "crawler.fetch", Start: start, End: f.t.now()})
	return html, err
}

// spanStats sums the spans of one name.
type spanStats struct {
	N     int
	Total time.Duration
}

func (s spanStats) meanUS() float64 {
	return ratio(float64(s.Total.Microseconds()), float64(s.N))
}

func byName(spans []span) map[string]spanStats {
	out := map[string]spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		st.N++
		st.Total += s.dur()
		out[s.Name] = st
	}
	return out
}
