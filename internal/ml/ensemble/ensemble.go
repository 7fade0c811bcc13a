// Package ensemble implements "Ensemble Selection from Libraries of
// Models" (Caruana et al., ICML 2004), the method the paper uses to
// combine its text and network classifiers (Section 6.3.3).
//
// The learner fits every model in a library on a training portion,
// then greedily selects models *with replacement* that maximize a
// hillclimb metric on a held-out portion; the final predictor averages
// the probability outputs of the selected bag. Sorted initialization
// (seeding the bag with the best few models) reduces overfitting of the
// greedy search, as recommended in the original paper.
package ensemble

import (
	"context"
	"errors"
	"math/rand"
	"sort"

	"pharmaverify/internal/eval"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/parallel"
)

// Factory creates one untrained library model.
type Factory struct {
	Name string
	New  func() ml.Classifier
}

// Selection is the ensemble-selection meta-classifier.
type Selection struct {
	// Library lists the candidate model factories.
	Library []Factory
	// HillclimbFraction of the training data is held out for the greedy
	// selection (default 1/3 when 0).
	HillclimbFraction float64
	// MaxRounds bounds the number of greedy additions (default 20).
	MaxRounds int
	// InitTopN seeds the bag with the N best single models (default 2).
	InitTopN int
	// Metric scores candidate bags on the hillclimb set (default AUC).
	Metric func(scores []float64, labels []int) float64
	// Bags enables bagged ensemble selection (Caruana et al. §2.3):
	// the greedy selection runs Bags times, each over a random subset
	// of the library, and the selected multisets are unioned. Bagging
	// reduces the variance of hillclimb overfitting with small
	// validation sets. 0 or 1 disables bagging.
	Bags int
	// BagFraction is the share of the library available to each bag
	// (default 0.5).
	BagFraction float64
	// Seed controls the train/hillclimb split and bagging.
	Seed int64
	// Workers bounds the concurrency of library training (0 = process
	// default, 1 = sequential). The selected models are identical at
	// every worker count: each library model trains independently on
	// the shared build split, and the greedy selection runs after all
	// of them finish.
	Workers int

	models   []ml.Classifier
	selected []int // indices into models, with multiplicity
	fitted   bool
}

// New returns an ensemble selector over the given library with the
// defaults from the paper's setup ("standard parameters").
func New(library ...Factory) *Selection {
	return &Selection{Library: library}
}

// Name implements ml.Named.
func (s *Selection) Name() string { return "EnsembleSelection" }

// ErrEmptyLibrary is returned when Fit is called with no library models.
var ErrEmptyLibrary = errors.New("ensemble: empty model library")

// Fit trains the library and runs greedy forward selection.
func (s *Selection) Fit(ds *ml.Dataset) error {
	return s.FitCtx(context.Background(), ds)
}

// FitCtx is Fit with cooperative cancellation: library training stops
// dispatching models once ctx is cancelled (in-flight fits drain) and
// the greedy selection is skipped, leaving the selection unfitted and
// returning ctx's error.
func (s *Selection) FitCtx(ctx context.Context, ds *ml.Dataset) error {
	if len(s.Library) == 0 {
		return ErrEmptyLibrary
	}
	if ds.Len() == 0 {
		return ml.ErrEmptyDataset
	}
	frac := s.HillclimbFraction
	if frac == 0 {
		frac = 1.0 / 3.0
	}
	maxRounds := s.MaxRounds
	if maxRounds == 0 {
		maxRounds = 20
	}
	initTop := s.InitTopN
	if initTop == 0 {
		initTop = 2
	}
	metric := s.Metric
	if metric == nil {
		metric = eval.AUC
	}

	// Stratified split into build and hillclimb sets.
	k := int(1 / frac)
	if k < 2 {
		k = 2
	}
	folds := eval.StratifiedKFold(ds, k, s.Seed)
	buildIdx, hillIdx := folds.TrainTest(0)
	build := ds.Subset(buildIdx)
	hill := ds.Subset(hillIdx)
	if build.CountClass(0) == 0 || build.CountClass(1) == 0 {
		return ml.ErrOneClass
	}

	// Train the library concurrently: models are independent given the
	// shared (read-only) build split, and hillclimb probabilities are
	// collected per model, so results match the sequential loop
	// exactly.
	type trained struct {
		clf   ml.Classifier
		probs []float64
	}
	lib, err := parallel.MapErrCtx(ctx, len(s.Library), s.Workers, func(m int) (trained, error) {
		clf := s.Library[m].New()
		if err := clf.Fit(build); err != nil {
			return trained{}, err
		}
		p := make([]float64, hill.Len())
		for i, x := range hill.X {
			p[i] = clf.Prob(x)
		}
		return trained{clf: clf, probs: p}, nil
	})
	if err != nil {
		return err
	}
	s.models = make([]ml.Classifier, len(s.Library))
	probs := make([][]float64, len(s.Library)) // model × hillclimb instance
	for m, t := range lib {
		s.models[m] = t.clf
		probs[m] = t.probs
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	if s.Bags > 1 {
		s.selected = selectBagged(probs, hill.Y, initTop, maxRounds, metric, s.Bags, s.BagFraction, s.Seed)
	} else {
		s.selected = SelectGreedy(probs, hill.Y, initTop, maxRounds, metric)
	}
	s.fitted = true
	return nil
}

// selectBagged runs greedy selection over random library subsets and
// unions the selections (with multiplicity).
func selectBagged(probs [][]float64, labels []int, initTop, maxRounds int, metric func([]float64, []int) float64, bags int, frac float64, seed int64) []int {
	if frac <= 0 || frac > 1 {
		frac = 0.5
	}
	rng := rand.New(rand.NewSource(seed + 999))
	n := len(probs)
	size := int(float64(n)*frac + 0.5)
	if size < 1 {
		size = 1
	}
	var selected []int
	for b := 0; b < bags; b++ {
		perm := rng.Perm(n)[:size]
		sub := make([][]float64, size)
		for i, m := range perm {
			sub[i] = probs[m]
		}
		top := initTop
		if top > size {
			top = size
		}
		for _, local := range SelectGreedy(sub, labels, top, maxRounds, metric) {
			selected = append(selected, perm[local])
		}
	}
	return selected
}

func bagMetric(sum []float64, n int, labels []int, metric func([]float64, []int) float64) float64 {
	avg := make([]float64, len(sum))
	for i, v := range sum {
		avg[i] = v / float64(n)
	}
	return metric(avg, labels)
}

// bagMetricInto is bagMetric with caller-owned scratch: the averaged
// scores land in avg (len(sum)) and the divisions are element-by-element
// like bagMetric's, so the metric sees bit-identical inputs without a
// fresh allocation per candidate bag.
func bagMetricInto(avg, sum []float64, n int, labels []int, metric func([]float64, []int) float64) float64 {
	for i, v := range sum {
		avg[i] = v / float64(n)
	}
	return metric(avg, labels)
}

// Prob averages the probability outputs of the selected bag (models
// count with their selection multiplicity).
func (s *Selection) Prob(x ml.Vector) float64 {
	if !s.fitted || len(s.selected) == 0 {
		return 0.5
	}
	var sum float64
	for _, m := range s.selected {
		sum += s.models[m].Prob(x)
	}
	return sum / float64(len(s.selected))
}

// Predict thresholds Prob at 0.5.
func (s *Selection) Predict(x ml.Vector) int { return ml.PredictFromProb(s.Prob(x)) }

// Selected reports how many times each library model was chosen, keyed
// by factory name.
func (s *Selection) Selected() map[string]int {
	out := make(map[string]int)
	for _, m := range s.selected {
		out[s.Library[m].Name]++
	}
	return out
}

// SelectionOrder returns the factory names of the selected models in
// the order the greedy search picked them (with multiplicity) — the
// sequence the determinism tests pin down across worker counts.
func (s *Selection) SelectionOrder() []string {
	out := make([]string, len(s.selected))
	for i, m := range s.selected {
		out[i] = s.Library[m].Name
	}
	return out
}

// SelectGreedy runs the sorted-initialization + greedy-forward-selection
// core of ensemble selection on precomputed model outputs: probs[m][i]
// is model m's legitimate probability for hillclimb instance i. It
// returns the selected model indices with multiplicity. This low-level
// entry point lets callers ensemble heterogeneous models (e.g. text
// classifiers and the TrustRank network model) whose feature spaces
// differ, as in the paper's Section 6.3.3.
//
// This is the kernelized selection: single-model metric values are
// computed once (not once per sort comparison) and every candidate-bag
// evaluation reuses one averaging scratch, so a selection run costs
// O(library) metric calls for the init plus one per candidate, and a
// constant number of allocations regardless of rounds. The chosen
// sequence is bit-identical to SelectGreedyReference: the sort reads a
// table of the same metric values, and the scratch holds the same
// element-by-element averages the reference computed into fresh slices.
// The metric must treat its argument as read-only and not retain it
// across calls (every repository metric qualifies).
func SelectGreedy(probs [][]float64, labels []int, initTopN, maxRounds int, metric func([]float64, []int) float64) []int {
	if len(probs) == 0 {
		return nil
	}
	if metric == nil {
		metric = eval.AUC
	}
	if initTopN <= 0 {
		initTopN = 2
	}
	if maxRounds <= 0 {
		maxRounds = 20
	}
	n := len(labels)

	single := make([]int, len(probs))
	singleScore := make([]float64, len(probs))
	for m := range probs {
		single[m] = m
		singleScore[m] = metric(probs[m], labels)
	}
	sort.SliceStable(single, func(a, b int) bool {
		return singleScore[single[a]] > singleScore[single[b]]
	})
	if initTopN > len(single) {
		initTopN = len(single)
	}
	selected := make([]int, 0, initTopN+maxRounds) // final size known up front
	selected = append(selected, single[:initTopN]...)

	sum := make([]float64, n)
	for _, m := range selected {
		for i := 0; i < n; i++ {
			sum[i] += probs[m][i]
		}
	}
	avg := make([]float64, n) // shared averaging scratch
	current := bagMetricInto(avg, sum, len(selected), labels, metric)
	cand := make([]float64, n)
	for round := 0; round < maxRounds; round++ {
		best, bestScore := -1, current
		for m := range probs {
			for i := 0; i < n; i++ {
				cand[i] = sum[i] + probs[m][i]
			}
			if sc := bagMetricInto(avg, cand, len(selected)+1, labels, metric); sc > bestScore {
				best, bestScore = m, sc
			}
		}
		if best < 0 {
			break
		}
		selected = append(selected, best)
		for i := 0; i < n; i++ {
			sum[i] += probs[best][i]
		}
		current = bestScore
	}
	return selected
}

// SelectGreedyReference is the pre-kernel implementation of SelectGreedy,
// kept verbatim as the naive reference: the sort re-evaluates the metric
// inside its comparator and every candidate bag averages into a fresh
// slice. The property tests and the training benchmarks pin SelectGreedy
// against it — same selections, strictly fewer metric calls and
// allocations.
func SelectGreedyReference(probs [][]float64, labels []int, initTopN, maxRounds int, metric func([]float64, []int) float64) []int {
	if len(probs) == 0 {
		return nil
	}
	if metric == nil {
		metric = eval.AUC
	}
	if initTopN <= 0 {
		initTopN = 2
	}
	if maxRounds <= 0 {
		maxRounds = 20
	}
	n := len(labels)

	single := make([]int, len(probs))
	for i := range single {
		single[i] = i
	}
	sort.SliceStable(single, func(a, b int) bool {
		return metric(probs[single[a]], labels) > metric(probs[single[b]], labels)
	})
	if initTopN > len(single) {
		initTopN = len(single)
	}
	selected := append([]int{}, single[:initTopN]...)

	sum := make([]float64, n)
	for _, m := range selected {
		for i := 0; i < n; i++ {
			sum[i] += probs[m][i]
		}
	}
	current := bagMetric(sum, len(selected), labels, metric)
	cand := make([]float64, n)
	for round := 0; round < maxRounds; round++ {
		best, bestScore := -1, current
		for m := range probs {
			for i := 0; i < n; i++ {
				cand[i] = sum[i] + probs[m][i]
			}
			if sc := bagMetric(cand, len(selected)+1, labels, metric); sc > bestScore {
				best, bestScore = m, sc
			}
		}
		if best < 0 {
			break
		}
		selected = append(selected, best)
		for i := 0; i < n; i++ {
			sum[i] += probs[best][i]
		}
		current = bestScore
	}
	return selected
}

// AverageSelected averages the outputs of the selected models (with
// multiplicity) for one instance's model outputs.
func AverageSelected(selected []int, modelProbs []float64) float64 {
	if len(selected) == 0 {
		return 0.5
	}
	var sum float64
	for _, m := range selected {
		sum += modelProbs[m]
	}
	return sum / float64(len(selected))
}

// Shuffle is a tiny deterministic helper used by tests and benchmarks to
// build reproducible library orders.
func Shuffle(fs []Factory, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
}

var (
	_ ml.Classifier = (*Selection)(nil)
	_ ml.Named      = (*Selection)(nil)
)
