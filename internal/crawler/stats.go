package crawler

import "sync"

// Stats is the crawl telemetry for one domain (or, aggregated, for a
// whole snapshot build). The page-fetch counters reconcile exactly:
//
//	Attempts = Successes + Failures
//	Retries  = Attempts − (pages tried at least once)
//
// Robots.txt traffic is tracked separately so the page counters stay
// comparable to MaxPages.
type Stats struct {
	// Attempts counts page fetch attempts, including retries.
	Attempts int `json:"attempts"`
	// Retries counts attempts beyond the first per page.
	Retries int `json:"retries"`
	// Successes counts attempts that returned a document.
	Successes int `json:"successes"`
	// Failures counts attempts that returned an error.
	Failures int `json:"failures"`
	// PagesFailed counts pages lost for good: a permanent error or an
	// exhausted retry budget.
	PagesFailed int `json:"pagesFailed"`
	// Timeouts counts attempts cut off by Config.FetchTimeout.
	Timeouts int `json:"timeouts"`
	// Bytes sums the HTML bytes of successful fetches.
	Bytes int64 `json:"bytes"`
	// BreakerTrips is 1 when this domain's failure budget was exhausted
	// and the crawl degraded to the pages collected so far (aggregated:
	// the number of domains that tripped).
	BreakerTrips int `json:"breakerTrips"`
	// Cancels is 1 when this domain's crawl was interrupted by context
	// cancellation or deadline expiry before finishing, degrading to the
	// pages collected so far (aggregated: the number of interrupted
	// domains). Interrupted domains are excluded from snapshots and
	// checkpoints so a resumed run recomputes them from scratch.
	Cancels int `json:"cancels,omitempty"`
	// DomainsMissing is only set on aggregated stats: the number of
	// planned domains that a cancelled snapshot build could not finish
	// (interrupted mid-crawl or never started) — the shortfall of a
	// partial snapshot.
	DomainsMissing int `json:"domainsMissing,omitempty"`
	// RobotsAttempts and RobotsFailures count /robots.txt traffic.
	RobotsAttempts int `json:"robotsAttempts"`
	RobotsFailures int `json:"robotsFailures"`
	// RobotsUnreachable records that /robots.txt kept failing
	// transiently even after retries, so the crawl proceeded as if the
	// file were absent (allow-all). A permanent 404 does NOT set this —
	// a missing robots.txt legitimately allows everything.
	RobotsUnreachable bool `json:"robotsUnreachable,omitempty"`
}

// Add accumulates another domain's stats into s.
func (s *Stats) Add(o Stats) {
	s.Attempts += o.Attempts
	s.Retries += o.Retries
	s.Successes += o.Successes
	s.Failures += o.Failures
	s.PagesFailed += o.PagesFailed
	s.Timeouts += o.Timeouts
	s.Bytes += o.Bytes
	s.BreakerTrips += o.BreakerTrips
	s.Cancels += o.Cancels
	s.DomainsMissing += o.DomainsMissing
	s.RobotsAttempts += o.RobotsAttempts
	s.RobotsFailures += o.RobotsFailures
	s.RobotsUnreachable = s.RobotsUnreachable || o.RobotsUnreachable
}

// Clone returns an independent copy of s, or nil for a nil receiver.
// Stats holds only value fields today, so the copy is deep; callers
// that hand per-crawl telemetry to long-lived consumers (the serving
// daemon's process-wide counters, cached verdicts) must use Clone
// rather than sharing the pointer, so later additions of reference
// fields cannot introduce aliasing.
func (s *Stats) Clone() *Stats {
	if s == nil {
		return nil
	}
	c := *s
	return &c
}

// Aggregator accumulates per-crawl telemetry into process-wide
// counters. It is safe for concurrent use: many requests can Add their
// crawl's Stats while others read a consistent Snapshot — the
// serving daemon's /metrics endpoint does exactly that.
type Aggregator struct {
	mu     sync.Mutex
	total  Stats
	crawls int
}

// Add accumulates one crawl's telemetry.
func (a *Aggregator) Add(o Stats) {
	a.mu.Lock()
	a.total.Add(o)
	a.crawls++
	a.mu.Unlock()
}

// Snapshot returns a copy of the accumulated totals and the number of
// crawls folded in so far.
func (a *Aggregator) Snapshot() (total Stats, crawls int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return *a.total.Clone(), a.crawls
}
