// Package pharmaverify is an automated system for internet pharmacy
// verification, reproducing Cordioli & Palpanas (EDBT 2018).
//
// The system solves two problems over a set of online pharmacies with a
// labeled subset:
//
//   - OPC, classification: decide whether a pharmacy is legitimate or
//     illegitimate, from the text of its crawled pages (TF-IDF term
//     vectors or character N-Gram Graphs fed to Naïve Bayes, SVM, C4.5
//     or MLP classifiers) and from its position in the web link graph
//     (TrustRank scores);
//   - OPR, ranking: order pharmacies by a legitimacy score
//     rank(p) = textRank(p) + networkRank(p), so human reviewers can
//     prioritize their work.
//
// # Quick start
//
//	ctx := context.Background()
//	world := pharmaverify.GenerateWorld(pharmaverify.WorldConfig{Seed: 1})
//	snap, err := pharmaverify.BuildSnapshotCtx(ctx, "crawl", world, world.Domains(), world.Labels(),
//	    pharmaverify.BuildOptions{Workers: 16})
//	// handle err
//	v, err := pharmaverify.TrainCtx(ctx, snap, pharmaverify.Options{})
//	// handle err
//	for _, a := range v.Assess(snap.Pharmacies) {
//	    fmt.Println(a.Domain, a.Legitimate, a.Rank)
//	}
//
// The synthetic world generator substitutes for the proprietary labeled
// crawls used in the paper; pointing the crawler at live HTTP instead
// only requires a different Fetcher. See DESIGN.md for the full system
// inventory and EXPERIMENTS.md for the reproduced evaluation.
package pharmaverify

import (
	"context"
	"io"

	"pharmaverify/internal/checkpoint"
	"pharmaverify/internal/core"
	"pharmaverify/internal/crawler"
	"pharmaverify/internal/dataset"
	"pharmaverify/internal/webgen"
)

// Re-exported core types: the verification system.
type (
	// Verifier is a trained pharmacy-verification system (text model +
	// TrustRank network model).
	Verifier = core.Verifier
	// Options configures training.
	Options = core.Options
	// Assessment is the verdict for one pharmacy: OPC decision,
	// component scores and the OPR rank.
	Assessment = core.Assessment
	// ClassifierKind selects a learner (NBM, NB, SVM, J48, MLP).
	ClassifierKind = core.ClassifierKind
	// SamplingKind selects training-set rebalancing (NO, SUB, SMOTE).
	SamplingKind = core.SamplingKind
)

// Classifier kinds, with the paper's abbreviations.
const (
	NBM = core.NBM
	NB  = core.NB
	SVM = core.SVM
	J48 = core.J48
	MLP = core.MLP
)

// Sampling kinds.
const (
	NoSampling  = core.NoSampling
	Subsampling = core.Subsampling
	SMOTE       = core.SMOTE
)

// Re-exported data types.
type (
	// Snapshot is a labeled crawl of many pharmacies at one time.
	Snapshot = dataset.Snapshot
	// Pharmacy is one crawled, preprocessed pharmacy website.
	Pharmacy = dataset.Pharmacy
	// World is a generated synthetic pharmacy web (see internal/webgen).
	World = webgen.World
	// WorldConfig configures synthetic-web generation.
	WorldConfig = webgen.Config
	// Fetcher abstracts page retrieval; World implements it, and
	// crawler.HTTPFetcher provides a live-HTTP implementation.
	Fetcher = crawler.Fetcher
	// CrawlConfig bounds per-domain crawls (200 pages by default, as in
	// the paper) and configures the resilience machinery: retry budget,
	// backoff, fetch timeout and the per-domain failure budget.
	CrawlConfig = crawler.Config
	// RetryConfig controls per-request retries with exponential backoff
	// and deterministic jitter.
	RetryConfig = crawler.RetryConfig
	// CrawlStats is the crawl telemetry of a snapshot build (attempts,
	// retries, failures, breaker trips, bytes); see Snapshot.CrawlStats
	// and Verifier.TrainingCrawlStats.
	CrawlStats = crawler.Stats
	// FaultConfig seeds the deterministic fault-injection fetcher.
	FaultConfig = crawler.FaultConfig
	// FaultInjector wraps any Fetcher with seeded transient/permanent
	// failures and latency spikes, for resilience testing.
	FaultInjector = crawler.FaultInjector
	// BuildOptions configures a snapshot build: crawl bounds,
	// parallelism, auxiliary domains and an optional checkpoint store
	// for crash-safe resume.
	BuildOptions = dataset.BuildOptions
	// CheckpointStore journals completed units of work (domain crawls,
	// CV folds) with atomic writes and checksummed records, so an
	// interrupted run resumes from the last finished unit. Corrupt
	// entries are quarantined and recomputed, never trusted.
	CheckpointStore = checkpoint.Store
)

// OpenCheckpoint opens (creating if needed) a checkpoint store rooted
// at dir. Pass it in BuildOptions.Checkpoint to make snapshot builds
// resumable.
func OpenCheckpoint(dir string) (*CheckpointStore, error) {
	return checkpoint.Open(dir)
}

// NewFaultInjector wraps a fetcher with deterministic fault injection.
func NewFaultInjector(inner Fetcher, cfg FaultConfig) *FaultInjector {
	return crawler.NewFaultInjector(inner, cfg)
}

// TrainCtx builds a Verifier from a labeled snapshot. Cancellation is
// checked between the training stages; a cancelled training returns
// ctx's error and no verifier.
func TrainCtx(ctx context.Context, snap *Snapshot, opts Options) (*Verifier, error) {
	return core.TrainCtx(ctx, snap, opts)
}

// LoadVerifier restores a verifier persisted with (*Verifier).Save, so
// a model trained on reviewed ground truth can be shipped and applied
// to fresh crawls without re-training.
func LoadVerifier(r io.Reader) (*Verifier, error) {
	return core.LoadVerifier(r)
}

// RankAssessments sorts assessments by decreasing legitimacy (the OPR
// totally ordered set).
func RankAssessments(as []Assessment) []Assessment {
	return core.RankAssessments(as)
}

// GenerateWorld builds a deterministic synthetic pharmacy web.
func GenerateWorld(cfg WorldConfig) *World { return webgen.Generate(cfg) }

// Dataset1 and Dataset2 return the paper's dataset shapes (Table 1):
// 167 legitimate + 1292 illegitimate pharmacies, and the six-months-
// later snapshot with the same legitimate domains and 1275 fresh
// illegitimate ones.
func Dataset1(seed int64) WorldConfig { return webgen.Dataset1Config(seed) }
func Dataset2(seed int64) WorldConfig { return webgen.Dataset2Config(seed) }

// BuildSnapshotCtx crawls the given domains through a fetcher (a World
// or a live-HTTP fetcher), preprocesses the text and extracts the link
// endpoints. labels maps every domain to 1 (legitimate) or 0.
// BuildOptions sets the crawl bounds, the number of simultaneous domain
// crawls, auxiliary non-pharmacy domains (directories, portals) whose
// links into the pharmacy set feed the network analysis — the paper's
// future-work extension (a) — and an optional checkpoint store.
//
// The build supports cooperative cancellation, graceful degradation
// and checkpointed resume. When ctx is cancelled or its deadline
// expires mid-build, it returns the partial snapshot assembled from the
// completed domains (shortfall in CrawlStats.DomainsMissing) together
// with ctx's error; with BuildOptions.Checkpoint set, a rerun with the
// same inputs resumes from the completed domains and produces a
// byte-identical snapshot.
func BuildSnapshotCtx(ctx context.Context, name string, f Fetcher, domains []string, labels map[string]int, opts BuildOptions) (*Snapshot, error) {
	return dataset.BuildCtx(ctx, name, f, domains, labels, opts)
}
