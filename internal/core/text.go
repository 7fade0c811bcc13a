package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"pharmaverify/internal/dataset"
	"pharmaverify/internal/eval"
	"pharmaverify/internal/featcache"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/ngram"
	"pharmaverify/internal/parallel"
	"pharmaverify/internal/vectorize"
)

// TextConfig parameterizes a text-classification experiment (§6.3.1).
type TextConfig struct {
	// Representation: TFIDF (default) or NGramGraphs.
	Representation Representation
	// Classifier is the learner abbreviation (default SVM).
	Classifier ClassifierKind
	// Sampling rebalances the training folds (default NoSampling).
	Sampling SamplingKind
	// Terms is the summary subsample size; 0 means "All".
	Terms int
	// Folds is the cross-validation fold count (default 3, the paper's
	// protocol).
	Folds int
	// Seed drives subsampling, fold assignment and learners.
	Seed int64
	// Workers bounds fold-level concurrency (0 = process default,
	// 1 = sequential). Results are identical at every worker count.
	Workers int
}

func (c TextConfig) withDefaults() TextConfig {
	if c.Representation == "" {
		c.Representation = TFIDF
	}
	if c.Classifier == "" {
		c.Classifier = SVM
	}
	if c.Sampling == "" {
		c.Sampling = NoSampling
	}
	if c.Folds == 0 {
		c.Folds = 3
	}
	return c
}

// featureCache memoizes the expensive derived feature artifacts —
// TF-IDF corpora/datasets and per-fold N-Gram-Graph feature datasets —
// across classifiers and tables. Keys embed the snapshot's content
// hash, so distinct snapshots can never alias an entry (the historical
// `%p`-keyed memo could, after the GC reused a snapshot's address).
// The bound covers a full table sweep (5 term sizes × 2 snapshots ×
// a few artifact kinds) with room to spare.
var featureCache = featcache.New(128)

// ResetFeatureCache drops every memoized feature artifact. The
// benchmark harness calls it between measured runs so each leg pays
// the full, cold-cache cost.
func ResetFeatureCache() { featureCache.Purge() }

// FeatureCacheStats reports hit/miss/eviction counts of the shared
// feature cache since the last reset.
func FeatureCacheStats() (hits, misses, evictions uint64) {
	return featureCache.Stats()
}

// textCorpus memoizes the tokenized, subsampled corpus (and its
// vocabulary) for a snapshot/terms/seed combination — the vocabulary
// build is shared by every classifier and both weighting schemes.
func textCorpus(snap *dataset.Snapshot, terms int, seed int64) *vectorize.Corpus {
	key := fmt.Sprintf("corpus|%s|%d|%d", snap.ContentHash(), terms, seed)
	v, _ := featureCache.DoScoped(featcache.ScopeServing, key, func() (any, error) {
		docs := snap.SubsampledTerms(terms, seed)
		return vectorize.NewCorpus(docs, snap.Labels(), snap.Domains()), nil
	})
	return v.(*vectorize.Corpus)
}

// TFIDFDataset vectorizes a snapshot with the Term Vector model:
// raw counts for the multinomial Naïve Bayes classifier, L2-normalized
// TF-IDF for everything else, over terms subsampled to cfg.Terms.
//
// The returned dataset is memoized in the shared content-keyed feature
// cache and may be handed to several callers concurrently: treat it as
// read-only (Subset views are fine; do not Add to it or rewrite its
// vectors).
func TFIDFDataset(snap *dataset.Snapshot, cfg TextConfig) *ml.Dataset {
	cfg = cfg.withDefaults()
	w := vectorize.WeightTFIDF
	if cfg.Classifier == NBM {
		w = vectorize.WeightCounts
	}
	key := fmt.Sprintf("tv|%s|%d|%d|%d", snap.ContentHash(), cfg.Terms, cfg.Seed, w)
	v, _ := featureCache.DoScoped(featcache.ScopeServing, key, func() (any, error) {
		return textCorpus(snap, cfg.Terms, cfg.Seed).Dataset(w), nil
	})
	return v.(*ml.Dataset)
}

// TextCV runs the paper's 3-fold cross-validated text classification
// and returns the per-fold results. Folds are trained and scored
// concurrently (cfg.Workers bounds the pool); results are bit-identical
// to a sequential run at any worker count.
func TextCV(snap *dataset.Snapshot, cfg TextConfig) (eval.CVResult, error) {
	cfg = cfg.withDefaults()
	switch cfg.Representation {
	case TFIDF:
		return tfidfCV(snap, cfg)
	case NGramGraphs:
		return nggCV(snap, cfg)
	default:
		return eval.CVResult{}, fmt.Errorf("core: unknown representation %q", cfg.Representation)
	}
}

func tfidfCV(snap *dataset.Snapshot, cfg TextConfig) (eval.CVResult, error) {
	ds := TFIDFDataset(snap, cfg)
	smp, err := Sampler(cfg.Sampling)
	if err != nil {
		return eval.CVResult{}, err
	}
	trainer := func() ml.Classifier {
		clf, err := NewClassifier(cfg.Classifier, cfg.Seed)
		if err != nil {
			panic(err) // kind validated below before first use
		}
		return clf
	}
	if _, err := NewClassifier(cfg.Classifier, cfg.Seed); err != nil {
		return eval.CVResult{}, err
	}
	// The fold plane — stratified splits plus the (sampled) per-fold
	// training sets — depends only on the dataset, fold count, seed and
	// sampling, not on the classifier, so every classifier evaluated on
	// the same term-vector view shares one prepared set. Sampler draws
	// happen once, at plane-build time, keeping the master RNG stream
	// identical to the sequential protocol.
	w := vectorize.WeightTFIDF
	if cfg.Classifier == NBM {
		w = vectorize.WeightCounts
	}
	foldsKey := fmt.Sprintf("folds|%s|%d|%d|%d|%d|%s", snap.ContentHash(), cfg.Terms, cfg.Seed, w, cfg.Folds, cfg.Sampling)
	v, _ := featureCache.DoScoped(featcache.ScopeTraining, foldsKey, func() (any, error) {
		_, inputs, err := eval.PrepareFoldsCtx(context.Background(), ds, cfg.Folds, cfg.Seed, smp)
		return inputs, err
	})
	return eval.CrossValidateCtx(context.Background(), ds, cfg.Folds, cfg.Seed, trainer, smp, eval.CVOptions{
		Workers:  cfg.Workers,
		Prepared: v.([]eval.FoldInput),
	})
}

// nggDocuments renders each pharmacy's (subsampled) terms back into a
// single string for n-gram graph construction.
func nggDocuments(snap *dataset.Snapshot, terms int, seed int64) []string {
	sub := snap.SubsampledTerms(terms, seed)
	docs := make([]string, len(sub))
	for i, ts := range sub {
		docs[i] = strings.Join(ts, " ")
	}
	return docs
}

// nggDocGrain is the number of documents one worker takes per dispatch
// in the fine-grained N-Gram-Graph passes (featurization, text ranks).
// One document costs tens of microseconds, so ~16 per chunk makes the
// chunk body a few hundred microseconds — large against the goroutine
// handoff, small enough to keep the tail balanced on uneven documents.
const nggDocGrain = 16

// NGGFeatureDataset builds the 8-feature similarity dataset of Figure 2
// for the given document texts, using class graphs merged from the
// instances listed in classIdx (typically a random half of the training
// fold, following the paper's protocol).
//
// This is the standalone (per-call graph construction) path. The
// training pipeline itself goes through the shared trainingPlane
// (featplane.go), which prebuilds every document graph once and hands
// bit-identical feature rows to all folds; this function remains the
// reference the plane is pinned against and the entry point for
// callers without a snapshot (ad-hoc document sets).
func NGGFeatureDataset(docs []string, labels []int, names []string, classIdx []int) *ml.Dataset {
	legitClass, illegitClass := nggClassGraphs(docs, labels, classIdx)

	// Feature pass: document graphs are built, compared and discarded
	// one at a time per worker, so memory stays bounded by the two
	// class graphs plus one document graph per CPU regardless of corpus
	// size.
	ds := &ml.Dataset{Dim: 8}
	feats := make([][]float64, len(docs))
	// Grain-aware fan-out: per-document featurization is fine-grained
	// (tens of microseconds), so documents are handed out in contiguous
	// chunks rather than one index per dispatch — the goroutine handoff
	// amortizes across the chunk and each worker's pooled builder scratch
	// stays hot for a whole run of documents.
	parallel.ForGrain(len(docs), 0, nggDocGrain, func(lo, hi int) {
		// Pooled single-pass kernel: one traversal of the document graph
		// computes all eight similarities, with the graph's scratch
		// (maps, buffers) reused across the worker's documents.
		for i := lo; i < hi; i++ {
			feats[i] = ngram.DocFeatures(nil, docs[i], legitClass, illegitClass)
		}
	})
	for i, f := range feats {
		name := ""
		if names != nil {
			name = names[i]
		}
		ds.Add(ml.NewVector(f), labels[i], name)
	}
	return ds
}

// nggClassGraphs builds the per-class merged graphs from the instances
// listed in classIdx, streaming one document graph at a time.
func nggClassGraphs(docs []string, labels []int, classIdx []int) (legit, illegit *ngram.Graph) {
	legit, illegit = ngram.New(), ngram.New()
	for _, i := range classIdx {
		g := ngram.FromDocument(docs[i])
		if labels[i] == ml.Legitimate {
			legit.Merge(g)
		} else {
			illegit.Merge(g)
		}
	}
	return legit, illegit
}

// nggFoldData caches the per-fold N-Gram-Graph feature datasets, which
// are identical for every classifier evaluated at the same (snapshot,
// terms, folds, seed) — the expensive graph construction then runs once
// per configuration rather than once per classifier. Concurrent
// classifiers hitting the same configuration share one build
// (singleflight), so a parallel table sweep never duplicates it.
type nggFoldData struct {
	folds eval.Folds
	ds    []*ml.Dataset
}

func nggFoldFeatures(snap *dataset.Snapshot, terms, foldCount int, seed int64, workers int) *nggFoldData {
	key := fmt.Sprintf("ngg|%s|%d|%d|%d", snap.ContentHash(), terms, foldCount, seed)
	v, _ := featureCache.DoScoped(featcache.ScopeTraining, key, func() (any, error) {
		plane := trainingPlaneFor(snap, terms, seed)
		labels := plane.Labels
		labelDS := &ml.Dataset{Dim: 1, X: make([]ml.Vector, len(labels)), Y: labels}
		folds := eval.StratifiedKFold(labelDS, foldCount, seed)
		rng := rand.New(rand.NewSource(seed + 17))

		// Pre-draw the per-fold class-graph halves in fold order so the
		// master RNG stream matches the sequential protocol; the matrix
		// builds themselves read only the shared plane, so the folds fan
		// out per the autotuned grain plan.
		halves := make([][]int, len(folds))
		for f := range folds {
			trainIdx, _ := folds.TrainTest(f)
			// Random half of the training instances builds the class graphs.
			perm := rng.Perm(len(trainIdx))
			half := make([]int, 0, len(trainIdx)/2)
			for _, p := range perm[:len(trainIdx)/2] {
				half = append(half, trainIdx[p])
			}
			halves[f] = half
		}
		plan := parallel.PlanGrainFor("ngg-folds", parallel.Workers(workers), len(folds), len(plane.Docs))
		plane.acquire()
		defer plane.release()
		data := &nggFoldData{folds: folds, ds: make([]*ml.Dataset, len(folds))}
		parallel.ForCtx(context.Background(), len(folds), plan.FoldWorkers, func(f int) {
			data.ds[f] = plane.featureDataset(halves[f], plan.DocWorkers, plan.DocGrain)
		})
		return data, nil
	})
	return v.(*nggFoldData)
}

// nggCV cross-validates the N-Gram-Graph pipeline: per fold, the class
// graphs are merged from a random half of the training instances and
// every instance is represented by its 8 similarities to the two class
// graphs; the classifier is trained on the training-fold features.
// The paper does not use sampling with this representation. Folds are
// trained and scored concurrently on the shared per-fold feature
// datasets.
func nggCV(snap *dataset.Snapshot, cfg TextConfig) (eval.CVResult, error) {
	if _, err := NewClassifier(cfg.Classifier, cfg.Seed); err != nil {
		return eval.CVResult{}, err
	}
	labels := snap.Labels()
	data := nggFoldFeatures(snap, cfg.Terms, cfg.Folds, cfg.Seed, cfg.Workers)
	folds := data.folds

	frs, err := parallel.MapErrCtx(context.Background(), len(folds), cfg.Workers, func(f int) (eval.FoldResult, error) {
		trainIdx, testIdx := folds.TrainTest(f)
		ds := data.ds[f]

		clf, err := NewClassifier(cfg.Classifier, cfg.Seed)
		if err != nil {
			return eval.FoldResult{}, err
		}
		if err := clf.Fit(ds.Subset(trainIdx)); err != nil {
			return eval.FoldResult{}, err
		}
		fr := eval.FoldResult{TestIndex: testIdx}
		for _, i := range testIdx {
			p := clf.Prob(ds.X[i])
			fr.Scores = append(fr.Scores, p)
			fr.Labels = append(fr.Labels, labels[i])
			fr.Confusion.Observe(labels[i], ml.PredictFromProb(p))
		}
		fr.AUC = eval.AUC(fr.Scores, fr.Labels)
		return fr, nil
	})
	if err != nil {
		return eval.CVResult{}, err
	}
	return eval.CVResult{Folds: frs}, nil
}
