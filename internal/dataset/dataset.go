// Package dataset defines the labeled pharmacy snapshots the
// experiments run on: for each pharmacy, the preprocessed terms of its
// summarized crawl and its outbound endpoint domains, plus the class
// label from the oracle (the paper's manually-labeled PharmaVerComp
// ground truth; here, the synthetic generator's labels).
//
// A Snapshot corresponds to one crawl epoch — the paper's Dataset 1 and
// Dataset 2, collected six months apart.
package dataset

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"pharmaverify/internal/checkpoint"
	"pharmaverify/internal/crawler"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/parallel"
	"pharmaverify/internal/textproc"
	"pharmaverify/internal/trust"
)

// Pharmacy is one labeled, crawled pharmacy website.
type Pharmacy struct {
	Domain string `json:"domain"`
	// Label is ml.Legitimate or ml.Illegitimate.
	Label int `json:"label"`
	// Terms is the stop-word-filtered token stream of the summary
	// document (all crawled pages merged).
	Terms []string `json:"terms"`
	// Outbound lists the distinct second-level endpoint domains the
	// site links to (Algorithm 1 input).
	Outbound []string `json:"outbound"`
	// Pages is the number of pages crawled.
	Pages int `json:"pages"`
}

// AuxSite is a crawled non-pharmacy website (e.g. a health portal or a
// review directory) whose outbound links point at pharmacies — the
// richer network input of the paper's future work (a). Auxiliary sites
// carry no class label and no text features; only their link structure
// participates in the network analysis.
type AuxSite struct {
	Domain   string   `json:"domain"`
	Outbound []string `json:"outbound"`
	Pages    int      `json:"pages"`
}

// Snapshot is a labeled crawl of many pharmacies at one point in time,
// optionally accompanied by auxiliary (non-pharmacy) link sources.
type Snapshot struct {
	Name       string     `json:"name"`
	Pharmacies []Pharmacy `json:"pharmacies"`
	Aux        []AuxSite  `json:"aux,omitempty"`
	// CrawlStats aggregates the crawl telemetry of the snapshot build
	// (pharmacies plus auxiliary sites): attempts, retries, failures,
	// breaker trips, bytes. Nil for snapshots saved by older versions
	// or assembled by hand.
	CrawlStats *crawler.Stats `json:"crawlStats,omitempty"`

	outboundOnce sync.Once
	outboundMap  map[string][]string

	hashOnce sync.Once
	hash     string
}

// BuildOptions configures a snapshot build.
type BuildOptions struct {
	// Crawl bounds each per-domain crawl.
	Crawl crawler.Config
	// Workers bounds the number of simultaneous domain crawls (<= 0
	// uses the shared worker default: parallel.SetDefault /
	// PHARMAVERIFY_WORKERS, then GOMAXPROCS).
	Workers int
	// Aux lists auxiliary non-pharmacy domains to crawl into
	// Snapshot.Aux.
	Aux []string
	// Checkpoint, when non-nil, journals every completed domain crawl,
	// so a build that is killed or deadlined restarts from the last
	// finished domain: checkpointed domains are replayed from disk,
	// only unfinished ones are re-fetched, and (for a deterministic
	// fetcher) the resumed snapshot is byte-identical to an
	// uninterrupted one. Corrupt journal entries are quarantined and
	// recomputed.
	Checkpoint *checkpoint.Store
}

// Checkpoint namespaces for the two crawl phases of a build.
const (
	crawlCheckpointKind    = "crawl"
	crawlAuxCheckpointKind = "crawl-aux"
)

// BuildCtx crawls every domain through the fetcher, preprocesses the
// text (summarization + stop-word removal, no stemming) and extracts
// the outbound endpoints; labels must contain every domain. Auxiliary
// domains in opts.Aux are crawled into Snapshot.Aux.
//
// The build degrades gracefully and can resume from a checkpoint. When
// ctx is cancelled or its deadline expires mid-build, BuildCtx returns
// the partial snapshot assembled from the domains whose crawls
// completed — the shortfall is recorded in CrawlStats.DomainsMissing —
// together with ctx's error, so callers can choose between using the
// degraded snapshot and resuming the run. Interrupted domains are never
// included (and never checkpointed): a resumed build recomputes them
// from scratch.
func BuildCtx(ctx context.Context, name string, f crawler.Fetcher, domains []string, labels map[string]int, opts BuildOptions) (*Snapshot, error) {
	for _, d := range domains {
		if _, ok := labels[d]; !ok {
			return nil, fmt.Errorf("dataset: no label for domain %q", d)
		}
	}
	results, crawlErr := crawlCheckpointed(ctx, f, domains, opts, crawlCheckpointKind)
	if crawlErr != nil && !isCancel(crawlErr) {
		return nil, crawlErr
	}
	pre := textproc.NewPreprocessor()

	snap := &Snapshot{Name: name}
	var stats crawler.Stats
	for _, d := range domains {
		r, ok := results[d]
		if !ok || r.Stats.Cancels != 0 {
			stats.DomainsMissing++
			continue
		}
		stats.Add(r.Stats)
		summary := textproc.Summarize(r.Text())
		snap.Pharmacies = append(snap.Pharmacies, Pharmacy{
			Domain:   d,
			Label:    labels[d],
			Terms:    pre.Terms(summary),
			Outbound: trust.OutboundEndpoints(r.External, d),
			Pages:    len(r.Pages),
		})
	}
	sort.Slice(snap.Pharmacies, func(i, j int) bool {
		return snap.Pharmacies[i].Domain < snap.Pharmacies[j].Domain
	})

	if len(opts.Aux) > 0 && crawlErr == nil {
		var auxResults map[string]crawler.Result
		auxResults, crawlErr = crawlCheckpointed(ctx, f, opts.Aux, opts, crawlAuxCheckpointKind)
		if crawlErr != nil && !isCancel(crawlErr) {
			return nil, crawlErr
		}
		for _, d := range opts.Aux {
			r, ok := auxResults[d]
			if !ok || r.Stats.Cancels != 0 {
				stats.DomainsMissing++
				continue
			}
			stats.Add(r.Stats)
			snap.Aux = append(snap.Aux, AuxSite{
				Domain:   d,
				Outbound: trust.OutboundEndpoints(r.External, d),
				Pages:    len(r.Pages),
			})
		}
		sort.Slice(snap.Aux, func(i, j int) bool { return snap.Aux[i].Domain < snap.Aux[j].Domain })
	} else if len(opts.Aux) > 0 {
		// The pharmacy phase was already interrupted: every auxiliary
		// domain is part of the shortfall.
		stats.DomainsMissing += len(opts.Aux)
	}
	snap.CrawlStats = &stats
	if crawlErr != nil {
		return snap, crawlErr
	}
	return snap, nil
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// crawlCheckpointed fans the domain crawls out through the shared
// parallel engine. With a checkpoint store it replays checkpointed
// domains from the journal and journals freshly completed ones;
// interrupted crawls (Stats.Cancels set) are never journaled. On
// cancellation no new domains are started: domains already crawling
// return partial results with Stats.Cancels set, unstarted domains are
// absent from the map, and ctx's error is returned alongside whatever
// completed.
func crawlCheckpointed(ctx context.Context, f crawler.Fetcher, domains []string, opts BuildOptions, kind string) (map[string]crawler.Result, error) {
	ckpt := opts.Checkpoint
	slots := make([]crawler.Result, len(domains))
	have := make([]bool, len(domains))
	putErrs := make([]error, len(domains))
	cancelErr := parallel.ForCtx(ctx, len(domains), opts.Workers, func(i int) {
		d := domains[i]
		var r crawler.Result
		if ckpt != nil {
			if ok, err := ckpt.GetJSON(kind, d, &r); err == nil && ok && r.Domain == d && r.Stats.Cancels == 0 {
				slots[i], have[i] = r, true
				return
			}
		}
		r = crawler.CrawlCtx(ctx, f, d, opts.Crawl)
		if ckpt != nil && r.Stats.Cancels == 0 && ctx.Err() == nil {
			putErrs[i] = ckpt.PutJSON(kind, d, r)
		}
		slots[i], have[i] = r, true
	})
	results := make(map[string]crawler.Result, len(domains))
	for i, r := range slots {
		if have[i] {
			results[r.Domain] = r
		}
	}
	for _, err := range putErrs {
		if err != nil {
			return results, err
		}
	}
	return results, cancelErr
}

// AuxOutbound returns auxiliary-domain → outbound endpoints.
func (s *Snapshot) AuxOutbound() map[string][]string {
	m := make(map[string][]string, len(s.Aux))
	for _, a := range s.Aux {
		m[a.Domain] = a.Outbound
	}
	return m
}

// Len reports the number of pharmacies.
func (s *Snapshot) Len() int { return len(s.Pharmacies) }

// Counts returns the number of legitimate and illegitimate pharmacies
// (the paper's Table 1 row).
func (s *Snapshot) Counts() (legit, illegit int) {
	for _, p := range s.Pharmacies {
		if p.Label == ml.Legitimate {
			legit++
		} else {
			illegit++
		}
	}
	return legit, illegit
}

// Labels returns the parallel label slice.
func (s *Snapshot) Labels() []int {
	y := make([]int, len(s.Pharmacies))
	for i, p := range s.Pharmacies {
		y[i] = p.Label
	}
	return y
}

// Domains returns the parallel domain slice.
func (s *Snapshot) Domains() []string {
	d := make([]string, len(s.Pharmacies))
	for i, p := range s.Pharmacies {
		d[i] = p.Domain
	}
	return d
}

// Outbound returns domain → outbound endpoints, the input of the
// network graph construction. The map is memoized and shared between
// callers: treat it as read-only (copy before merging anything into
// it), and do not mutate Pharmacies after the first call.
func (s *Snapshot) Outbound() map[string][]string {
	s.outboundOnce.Do(func() {
		m := make(map[string][]string, len(s.Pharmacies))
		for _, p := range s.Pharmacies {
			m[p.Domain] = p.Outbound
		}
		s.outboundMap = m
	})
	return s.outboundMap
}

// ContentHash returns a hex SHA-256 digest of the snapshot's contents
// (pharmacies, labels, terms, link structure and auxiliary sites) —
// everything the derived feature representations depend on. It is the
// cache key of the shared feature cache: unlike a pointer-formatted
// key, it can never alias two distinct snapshots, and logically
// identical snapshots (e.g. one reloaded from disk) share entries.
//
// The digest is memoized; like Outbound, it assumes the snapshot is
// not mutated after the first call.
func (s *Snapshot) ContentHash() string {
	s.hashOnce.Do(func() {
		h := sha256.New()
		var frame [8]byte
		num := func(n int) {
			binary.LittleEndian.PutUint64(frame[:], uint64(n))
			h.Write(frame[:])
		}
		// Length-prefix every string so concatenations can't collide
		// ("ab","c" vs "a","bc").
		str := func(v string) {
			num(len(v))
			io.WriteString(h, v)
		}
		num(len(s.Pharmacies))
		for _, p := range s.Pharmacies {
			str(p.Domain)
			num(p.Label)
			num(len(p.Terms))
			for _, t := range p.Terms {
				str(t)
			}
			num(len(p.Outbound))
			for _, o := range p.Outbound {
				str(o)
			}
			num(p.Pages)
		}
		num(len(s.Aux))
		for _, a := range s.Aux {
			str(a.Domain)
			num(len(a.Outbound))
			for _, o := range a.Outbound {
				str(o)
			}
			num(a.Pages)
		}
		s.hash = hex.EncodeToString(h.Sum(nil))
	})
	return s.hash
}

// SubsampledTerms returns each pharmacy's terms randomly subsampled to
// k terms (k=0 keeps everything), with a deterministic per-pharmacy
// stream derived from seed — the paper's 100/250/1000/2000-term
// experiment inputs.
func (s *Snapshot) SubsampledTerms(k int, seed int64) [][]string {
	out := make([][]string, len(s.Pharmacies))
	for i, p := range s.Pharmacies {
		rng := rand.New(rand.NewSource(seed + int64(i)*2654435761))
		out[i] = textproc.Subsample(p.Terms, k, rng)
	}
	return out
}

// IllegitDomainSet returns the set of illegitimate domains, used to
// check the paper's disjointness property between snapshots.
func (s *Snapshot) IllegitDomainSet() map[string]bool {
	m := make(map[string]bool)
	for _, p := range s.Pharmacies {
		if p.Label == ml.Illegitimate {
			m[p.Domain] = true
		}
	}
	return m
}

// Save serializes the snapshot as JSON.
func (s *Snapshot) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// Load deserializes a snapshot saved with Save.
func Load(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("dataset: decode snapshot: %w", err)
	}
	return &s, nil
}
