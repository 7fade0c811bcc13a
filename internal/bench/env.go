// Package bench hosts the experiment runners that regenerate every
// table and figure of the paper's evaluation (Section 6). The same
// runners back the testing.B benchmarks in the repository root and the
// cmd/experiments binary, so `go test -bench` and the CLI print the
// same rows.
//
// Experiments run at a configurable Scale: FullScale reproduces the
// paper's dataset sizes (Table 1), SmallScale is a fast sanity setting
// used by default in benchmarks and tests.
package bench

import (
	"context"
	"fmt"
	"sync"

	"pharmaverify/internal/core"
	"pharmaverify/internal/crawler"
	"pharmaverify/internal/dataset"
	"pharmaverify/internal/eval"
	"pharmaverify/internal/featcache"
	"pharmaverify/internal/webgen"
)

// Scale sizes the synthetic datasets.
type Scale struct {
	Name string
	// Dataset 1 class sizes.
	Legit1, Illegit1 int
	// Dataset 2 class sizes (same legitimate domains, fresh
	// illegitimate ones).
	Legit2, Illegit2 int
	// NetworkSize is the affiliate-network size.
	NetworkSize int
	// Seed drives everything.
	Seed int64
	// TermSizes is the subsample sweep (0 = "All").
	TermSizes []int
}

// FullScale reproduces the paper's Table 1 exactly: 167 + 1292
// pharmacies in Dataset 1 and 167 + 1275 in Dataset 2.
var FullScale = Scale{
	Name:   "full",
	Legit1: 167, Illegit1: 1292,
	Legit2: 167, Illegit2: 1275,
	NetworkSize: 50,
	Seed:        20180326, // EDBT 2018 opening day
	TermSizes:   []int{100, 250, 1000, 2000, 0},
}

// SmallScale is a reduced setting (same class imbalance) for quick
// runs; shapes still hold, absolute numbers are noisier.
var SmallScale = Scale{
	Name:   "small",
	Legit1: 36, Illegit1: 280,
	Legit2: 36, Illegit2: 264,
	NetworkSize: 40,
	Seed:        20180326,
	TermSizes:   []int{100, 250, 1000},
}

// Env carries the generated snapshots and memoized experiment results.
// The result caches deduplicate concurrent computations of the same
// cell (singleflight), so the parallel table sweeps never run one
// configuration twice.
type Env struct {
	Scale Scale
	// World1/World2 are the synthetic webs; Snap1/Snap2 the crawled,
	// preprocessed datasets.
	World1, World2 *webgen.World
	Snap1, Snap2   *dataset.Snapshot

	results *featcache.Cache
}

// resultCacheSize bounds an Env's memoized CV results: every text cell
// of the sweep (2 representations × 5 classifiers × 3 samplings ×
// 5 term sizes), the network variants and the drift cells fit with
// ample headroom.
const resultCacheSize = 512

var (
	envMu    sync.Mutex
	envCache = map[string]*Env{}
)

// NewEnvCtx generates (or returns the cached) environment for a scale.
// The snapshot builds, the expensive phase of environment
// construction, stop on cancellation: a cancelled build returns ctx's
// error and caches nothing.
func NewEnvCtx(ctx context.Context, s Scale) (*Env, error) {
	key := fmt.Sprintf("%s-%d", s.Name, s.Seed)
	envMu.Lock()
	defer envMu.Unlock()
	if e, ok := envCache[key]; ok {
		return e, nil
	}

	w1 := webgen.Generate(webgen.Config{
		Seed: s.Seed, Snapshot: 1,
		NumLegit: s.Legit1, NumIllegit: s.Illegit1,
		NetworkSize: s.NetworkSize,
	})
	w2 := webgen.Generate(webgen.Config{
		Seed: s.Seed, Snapshot: 2,
		NumLegit: s.Legit2, NumIllegit: s.Illegit2,
		IllegitOffset: s.Illegit1,
		NetworkSize:   s.NetworkSize,
	})
	// Auxiliary non-pharmacy directories for the future-work (a)
	// ablation: health portals and review sites that link to
	// pharmacies. They do not affect the base experiments.
	dirs := w1.GenerateDirectories(1+s.Legit1/8, 1+s.Illegit1/60)
	auxDomains := w1.AttachDirectories(dirs)

	snap1, err := dataset.BuildCtx(ctx, "Dataset 1", w1, w1.Domains(), w1.Labels(),
		dataset.BuildOptions{Crawl: crawler.Config{}, Workers: 16, Aux: auxDomains})
	if err != nil {
		return nil, err
	}
	snap2, err := dataset.BuildCtx(ctx, "Dataset 2", w2, w2.Domains(), w2.Labels(),
		dataset.BuildOptions{Crawl: crawler.Config{}, Workers: 16})
	if err != nil {
		return nil, err
	}
	e := &Env{
		Scale:  s,
		World1: w1, World2: w2,
		Snap1: snap1, Snap2: snap2,
		results: featcache.New(resultCacheSize),
	}
	envCache[key] = e
	return e, nil
}

// Fresh returns an Env sharing this environment's generated worlds and
// snapshots but with empty result caches — benchmarks use it so every
// iteration measures real work instead of a cache hit.
func (e *Env) Fresh() *Env {
	return &Env{
		Scale:  e.Scale,
		World1: e.World1, World2: e.World2,
		Snap1: e.Snap1, Snap2: e.Snap2,
		results: featcache.New(resultCacheSize),
	}
}

// cvResult memoizes one CV computation under key with singleflight
// semantics.
func (e *Env) cvResult(key string, run func() (eval.CVResult, error)) (eval.CVResult, error) {
	v, err := e.results.Do(key, func() (any, error) {
		r, err := run()
		if err != nil {
			return nil, err
		}
		return r, nil
	})
	if err != nil {
		return eval.CVResult{}, err
	}
	return v.(eval.CVResult), nil
}

// TextResult memoizes core.TextCV runs on Dataset 1.
func (e *Env) TextResult(rep core.Representation, clf core.ClassifierKind, smp core.SamplingKind, terms int) (eval.CVResult, error) {
	key := fmt.Sprintf("t|%s|%s|%s|%d", rep, clf, smp, terms)
	return e.cvResult(key, func() (eval.CVResult, error) {
		return core.TextCV(e.Snap1, core.TextConfig{
			Representation: rep, Classifier: clf, Sampling: smp,
			Terms: terms, Seed: e.Scale.Seed,
		})
	})
}

// NetworkResult memoizes core.NetworkCV runs on Dataset 1.
func (e *Env) NetworkResult(variant core.NetworkVariant) (eval.CVResult, error) {
	return e.cvResult("n|"+string(variant), func() (eval.CVResult, error) {
		return core.NetworkCV(e.Snap1, core.NetworkConfig{
			Variant: variant, Seed: e.Scale.Seed,
		})
	})
}
