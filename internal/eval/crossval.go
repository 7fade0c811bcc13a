package eval

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"pharmaverify/internal/checkpoint"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/parallel"
)

// Folds holds the instance indices of each cross-validation fold.
type Folds [][]int

// StratifiedKFold partitions the instances of ds into k folds that
// preserve the class distribution, shuffled with the given seed. The
// paper uses k=3 ("two folds for training and the third for testing").
func StratifiedKFold(ds *ml.Dataset, k int, seed int64) Folds {
	if k < 2 {
		panic("eval: k must be >= 2")
	}
	rng := rand.New(rand.NewSource(seed))
	var pos, neg []int
	for i, y := range ds.Y {
		if y == ml.Legitimate {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })

	folds := make(Folds, k)
	for i, idx := range pos {
		folds[i%k] = append(folds[i%k], idx)
	}
	for i, idx := range neg {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds
}

// TrainTest returns the training indices (all folds but f) and the test
// indices (fold f).
func (fs Folds) TrainTest(f int) (train, test []int) {
	for i, fold := range fs {
		if i == f {
			test = append(test, fold...)
		} else {
			train = append(train, fold...)
		}
	}
	return train, test
}

// FoldResult is the outcome of evaluating one CV fold.
type FoldResult struct {
	Confusion Confusion
	AUC       float64
	// Scores/Labels are the per-instance legitimate-class scores and
	// true labels on the test fold, retained for ranking analyses.
	Scores []float64
	Labels []int
	// TestIndex maps positions in Scores back to dataset indices.
	TestIndex []int
}

// CVResult aggregates fold results.
type CVResult struct {
	Folds []FoldResult
}

// Metric extracts one number from a fold (for mean/CI aggregation).
type Metric func(FoldResult) float64

// Standard metrics over folds.
var (
	MetricAccuracy             Metric = func(f FoldResult) float64 { return f.Confusion.Accuracy() }
	MetricAUC                  Metric = func(f FoldResult) float64 { return f.AUC }
	MetricLegitPrecision       Metric = func(f FoldResult) float64 { return f.Confusion.PrecisionLegitimate() }
	MetricLegitRecall          Metric = func(f FoldResult) float64 { return f.Confusion.RecallLegitimate() }
	MetricIllegitPrecision     Metric = func(f FoldResult) float64 { return f.Confusion.PrecisionIllegitimate() }
	MetricIllegitRecall        Metric = func(f FoldResult) float64 { return f.Confusion.RecallIllegitimate() }
	MetricF1Legit              Metric = func(f FoldResult) float64 { return f.Confusion.F1Legitimate() }
	MetricFalsePositiveRate    Metric = func(f FoldResult) float64 { return f.Confusion.FalsePositiveRate() }
	MetricPairwiseOrderedness  Metric = func(f FoldResult) float64 { return PairwiseOrderedness(f.Scores, f.Labels) }
	MetricLegitClassifiedCount Metric = func(f FoldResult) float64 { return float64(f.Confusion.TP + f.Confusion.FP) }
)

// Mean returns the across-fold mean of a metric.
func (r CVResult) Mean(m Metric) float64 {
	vals := r.values(m)
	mean, _ := MeanStd(vals)
	return mean
}

// CI95 returns the across-fold 95% confidence half-width of a metric.
func (r CVResult) CI95(m Metric) float64 {
	return ConfidenceInterval95(r.values(m))
}

// Pooled returns the confusion matrix summed over all folds.
func (r CVResult) Pooled() Confusion {
	var c Confusion
	for _, f := range r.Folds {
		c.TP += f.Confusion.TP
		c.FN += f.Confusion.FN
		c.FP += f.Confusion.FP
		c.TN += f.Confusion.TN
	}
	return c
}

// PooledAUC computes AUC over the union of all fold scores.
func (r CVResult) PooledAUC() float64 {
	var scores []float64
	var labels []int
	for _, f := range r.Folds {
		scores = append(scores, f.Scores...)
		labels = append(labels, f.Labels...)
	}
	return AUC(scores, labels)
}

func (r CVResult) values(m Metric) []float64 {
	vals := make([]float64, len(r.Folds))
	for i, f := range r.Folds {
		vals[i] = m(f)
	}
	return vals
}

// Trainer produces a fresh classifier for each fold; Sampler optionally
// rebalances the training split (nil means the natural distribution).
type Trainer func() ml.Classifier

// Sampler rebalances a training set (undersampling, SMOTE, ...).
type Sampler func(*ml.Dataset, *rand.Rand) *ml.Dataset

// CVOptions tunes the execution of cross-validation without changing
// its results.
type CVOptions struct {
	// Workers bounds fold-level concurrency: folds train and score on
	// up to Workers goroutines. 0 uses the process default
	// (parallel.Workers); 1 forces a sequential run. Results are
	// bit-identical at every worker count.
	Workers int
	// Checkpoint, when non-nil, journals every completed fold under
	// CheckpointKey, and a later run with the same inputs and key skips
	// straight to the stored FoldResult. Checkpointed and recomputed
	// folds are interchangeable (the fold computation is deterministic
	// given ds, seed and trainer), so a resumed CV is bit-identical to
	// an uninterrupted one.
	Checkpoint *checkpoint.Store
	// CheckpointKey namespaces this CV run in the store. It must encode
	// everything the fold results depend on (dataset identity,
	// classifier, sampling, k, seed); reusing a key across different
	// configurations replays the wrong folds. Empty disables
	// checkpointing even when Checkpoint is set.
	CheckpointKey string
	// Prepared, when non-nil, supplies the materialized fold inputs and
	// skips the pre-draw phase entirely. It must come from
	// PrepareFoldsCtx with the same (ds, k, seed, sampler) — the caller
	// vouches for that, typically by caching the prepared folds under a
	// key that encodes all four. The inputs are read shared and
	// read-only, so one prepared set can back many concurrent CV runs
	// (e.g. every classifier evaluated on the same training plane).
	Prepared []FoldInput
}

// FoldInput is one fold's materialized training input: the (possibly
// resampled) training set and the held-out test indices. Instances of
// this type are shared read-only between CV runs; do not mutate the
// training set.
type FoldInput struct {
	TrainSet *ml.Dataset
	TestIdx  []int
}

// PrepareFoldsCtx materializes every fold's training input for a CV
// run, sequentially in fold order — including each sampler draw from
// the master seed's RNG stream, exactly as the sequential protocol
// demands. The result is the shareable fold plane of a (dataset, k,
// seed, sampler) configuration: CrossValidateCtx with
// CVOptions.Prepared set consumes it without re-drawing, and several
// classifiers evaluated over the same configuration can reuse one
// prepared set with bit-identical results.
func PrepareFoldsCtx(ctx context.Context, ds *ml.Dataset, k int, seed int64, sample Sampler) (Folds, []FoldInput, error) {
	folds := StratifiedKFold(ds, k, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	inputs := make([]FoldInput, len(folds))
	for f := range folds {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		trainIdx, testIdx := folds.TrainTest(f)
		trainSet := ds.Subset(trainIdx)
		if sample != nil {
			trainSet = sample(trainSet, rng)
		}
		inputs[f] = FoldInput{TrainSet: trainSet, TestIdx: testIdx}
	}
	return folds, inputs, nil
}

// foldCheckpointKind is the checkpoint namespace for CV fold results.
const foldCheckpointKind = "fold"

// CrossValidateCtx runs stratified k-fold cross-validation of the
// trainer on ds. The sampler (if non-nil) is applied to each training
// split only; the test split always keeps the natural distribution,
// matching the paper's protocol. Folds are evaluated concurrently on up
// to opt.Workers goroutines (<= 0 uses the shared worker default).
//
// Determinism contract: the per-fold training sets — including every
// sampler draw from the master seed's RNG stream — are materialized
// sequentially in fold order *before* folds are dispatched to the
// worker pool. Training and scoring, the expensive phase, then run
// concurrently on self-contained inputs (the trainer must return a
// fresh classifier per call and classifiers must not mutate their
// training set, which all repository learners honor). Parallel results
// are therefore bit-identical to a sequential run of the historical
// single-threaded loop.
//
// Cancellation and optional per-fold checkpointing: on cancellation it
// stops dispatching folds, drains the in-flight ones (journaling them
// when a checkpoint store is configured) and returns ctx's error; a
// subsequent run with the same inputs and CVOptions.CheckpointKey
// resumes from the completed folds.
func CrossValidateCtx(ctx context.Context, ds *ml.Dataset, k int, seed int64, train Trainer, sample Sampler, opt CVOptions) (CVResult, error) {
	// Pre-draw phase (sequential, fold order): consume the shared
	// sampler stream exactly as the sequential loop did. This phase must
	// run in full even for a checkpoint-resumed CV — skipping a fold's
	// draws would shift the stream of every later fold. A caller that
	// already holds the prepared fold plane passes it in and skips the
	// draws wholesale (they happened once, when the plane was built).
	inputs := opt.Prepared
	if inputs == nil {
		var err error
		_, inputs, err = PrepareFoldsCtx(ctx, ds, k, seed, sample)
		if err != nil {
			return CVResult{}, err
		}
	} else if len(inputs) != k {
		return CVResult{}, fmt.Errorf("eval: %d prepared folds for k=%d", len(inputs), k)
	}
	folds := inputs

	ckpt := opt.Checkpoint
	if opt.CheckpointKey == "" {
		ckpt = nil
	}

	// Fan-out phase: train and score folds concurrently.
	frs, err := parallel.MapErrCtx(ctx, len(folds), opt.Workers, func(f int) (FoldResult, error) {
		key := fmt.Sprintf("%s/%d-of-%d", opt.CheckpointKey, f, len(folds))
		if ckpt != nil {
			var fr FoldResult
			if ok, err := ckpt.GetJSON(foldCheckpointKind, key, &fr); err == nil && ok {
				return fr, nil
			}
		}
		clf := train()
		if err := clf.Fit(inputs[f].TrainSet); err != nil {
			return FoldResult{}, err
		}
		fr := FoldResult{TestIndex: inputs[f].TestIdx}
		for _, i := range inputs[f].TestIdx {
			p := clf.Prob(ds.X[i])
			fr.Scores = append(fr.Scores, p)
			fr.Labels = append(fr.Labels, ds.Y[i])
			fr.Confusion.Observe(ds.Y[i], ml.PredictFromProb(p))
		}
		fr.AUC = AUC(fr.Scores, fr.Labels)
		if ckpt != nil {
			if err := ckpt.PutJSON(foldCheckpointKind, key, fr); err != nil {
				return FoldResult{}, err
			}
		}
		return fr, nil
	})
	if err != nil {
		return CVResult{}, err
	}
	return CVResult{Folds: frs}, nil
}

// PairwiseOrderedness implements the paper's pairord measure: the
// fraction of (p,q) pairs with different labels that are ranked without
// violation, where a violation is an illegitimate pharmacy receiving a
// score greater than or equal to a legitimate pharmacy's score.
//
// The paper's indicator I(p,q) is 1 iff rank(p) >= rank(q) while
// O(p) < O(q) (or symmetrically), i.e. ties count as violations.
func PairwiseOrderedness(scores []float64, labels []int) float64 {
	if len(scores) != len(labels) {
		panic("eval: scores and labels length mismatch")
	}
	// Count, over all legit/illegit pairs, how many have
	// score(illegit) >= score(legit). Sorting gives O(n log n).
	type sl struct {
		s float64
		y int
	}
	pts := make([]sl, len(scores))
	var pos, neg int
	for i := range scores {
		pts[i] = sl{scores[i], labels[i]}
		if labels[i] == ml.Legitimate {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 1
	}
	sort.SliceStable(pts, func(a, b int) bool { return pts[a].s < pts[b].s })

	var violations float64
	// Sweep in increasing score order. For each legitimate instance,
	// every illegitimate instance with score >= its score violates.
	// Handle ties in blocks.
	i := 0
	negSeen := 0 // illegitimate with strictly smaller score
	for i < len(pts) {
		j := i
		posBlock, negBlock := 0, 0
		for j < len(pts) && pts[j].s == pts[i].s {
			if pts[j].y == ml.Legitimate {
				posBlock++
			} else {
				negBlock++
			}
			j++
		}
		negAtOrAbove := neg - negSeen // includes ties in this block
		violations += float64(posBlock) * float64(negAtOrAbove)
		negSeen += negBlock
		i = j
	}
	total := float64(pos) * float64(neg)
	return (total - violations) / total
}
