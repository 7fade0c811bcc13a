package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pharmaverify/internal/core"
	"pharmaverify/internal/dataset"
	"pharmaverify/internal/eval"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/ngram"
	"pharmaverify/internal/vectorize"
	"pharmaverify/internal/webgen"
)

const (
	// studyScale shrinks Dataset 1 (167 legitimate, 1292 illegitimate)
	// to a world of the same shape that a few studies fit into one run.
	studyScale = 4
	// studyTerms subsamples each summary, as the paper's ranking tables
	// do; every study call uses it.
	studyTerms = 300
	// studyFolds is RankCV's default cross-validation fold count.
	studyFolds = 3
	// setupsPerCycle is how many times each cycle of a run generates
	// the study world; setup_s is the median over the run.
	setupsPerCycle = 3
	// minCycles is the fewest cycles (world generations, a public-call
	// replay and a study) an untraced run makes; replays is how many of
	// them, the first ones, include the replay.
	minCycles = 3
	replays   = 2
)

func studyWorld(seed int64) *webgen.World {
	return webgen.Generate(webgen.Config{Seed: seed, Snapshot: 1, NumLegit: 167 / studyScale, NumIllegit: 1292 / studyScale})
}

// studyOut is one ranking study: the analyst's whole OPR run.
type studyOut struct {
	Wall       time.Duration
	Domains    int
	NGG, TFIDF core.RankResult
}

// study crawls the world, trains the verifier and ranks the pharmacies
// with both text representations, from a cold feature cache.
func study(ctx context.Context, w *webgen.World, seed int64) (studyOut, error) {
	core.ResetFeatureCache()
	t0 := time.Now()
	snap, err := dataset.BuildCtx(ctx, "study", w, w.Domains(), w.Labels(), dataset.BuildOptions{Workers: runtime.NumCPU()})
	if err != nil {
		return studyOut{}, fmt.Errorf("study crawl: %w", err)
	}
	if _, err := core.Train(snap, core.Options{Classifier: core.NBM, Terms: studyTerms, Seed: seed}); err != nil {
		return studyOut{}, fmt.Errorf("study train: %w", err)
	}
	ngg, err := core.RankCV(snap, core.RankConfig{Representation: core.NGramGraphs, Terms: studyTerms, Seed: seed})
	if err != nil {
		return studyOut{}, fmt.Errorf("N-gram-graph RankCV: %w", err)
	}
	tfidf, err := core.RankCV(snap, core.RankConfig{Representation: core.TFIDF, Classifier: core.NBM, Terms: studyTerms, Seed: seed})
	if err != nil {
		return studyOut{}, fmt.Errorf("TF-IDF RankCV: %w", err)
	}
	return studyOut{Wall: time.Since(t0), Domains: snap.Len(), NGG: ngg, TFIDF: tfidf}, nil
}

func runStudy(ctx context.Context, o options) (*runResult, error) {
	var (
		w      *webgen.World
		setups []time.Duration
	)
	generate := func(rounds int) {
		for i := 0; i < rounds; i++ {
			w = nil
			runtime.GC()
			t0 := time.Now()
			w = studyWorld(o.Seed)
			setups = append(setups, time.Since(t0))
		}
	}
	if o.Trace {
		generate(1)
		return traceStudy(ctx, o, w)
	}

	// Closed loop, one caller, in cycles: a few world generations, a
	// public-call replay (first cycles only), then a study; the next
	// cycle starts when the last one ends, while another still fits into
	// the timed phase. The interleaving spreads every kind of sample over
	// the run, so a slow spell of the host catches few of each.
	//
	// The replays check the rankings and time every per-document
	// ranking, about 1100 per replay, each the same documents against
	// the same class graphs: a ranking counts with its fastest replay.
	var (
		outs    []studyOut
		reps    []replayOut
		fastest []float64
		heap    float64
	)
	budget := time.Duration(o.Seconds) * time.Second
	start := time.Now()
	for len(outs) < minCycles || time.Since(start)*time.Duration(len(outs)+1)/time.Duration(len(outs)) <= budget {
		generate(setupsPerCycle)
		if len(reps) < replays {
			rep, err := replay(ctx, w, o.Seed, nil)
			if err != nil {
				return nil, err
			}
			reps = append(reps, rep)
			if len(fastest) == 0 {
				fastest = append(fastest, rep.CompareMS...)
			}
			for j, ms := range rep.CompareMS {
				fastest[j] = min(fastest[j], ms)
			}
		}
		out, err := study(ctx, w, o.Seed)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		heap = heapMB()
	}
	p50, p99 := percentile(append([]float64(nil), fastest...), 50), percentile(fastest, 99)
	if !p99.OK {
		return nil, fmt.Errorf("replays ranked %d documents: too few for p99 with %d beyond it", p99.N, minBeyond)
	}
	r := &runResult{Report: map[string]any{}, Attempted: len(outs)}
	var walls []time.Duration
	for i, out := range outs {
		walls = append(walls, out.Wall)
		for _, rep := range reps {
			if out.NGG.PairwiseOrderedness != rep.NGGPairord || out.TFIDF.PairwiseOrderedness != rep.TFIDFPairord {
				r.Failed++
				r.problem("study %d: RankCV pairord %v (N-gram graphs), %v (TF-IDF); public-call replay %v, %v",
					i, out.NGG.PairwiseOrderedness, out.TFIDF.PairwiseOrderedness, rep.NGGPairord, rep.TFIDFPairord)
				break
			}
		}
	}
	wall := medianDuration(walls)
	r.add("setup_s", medianDuration(setups), len(setups))
	r.add("p50_ms", p50.Value, p50.N)
	r.add("p99_ms", p99.Value, p99.N)
	r.add("slo_rps", float64(outs[0].Domains)/wall, len(outs))
	r.add("ok_ratio", 1-float64(r.Failed)/float64(len(outs)), len(outs))
	r.add("accuracy", topAccuracy(outs[0].NGG.Ranking), len(outs[0].NGG.Ranking))
	r.add("study_s", wall, len(outs))
	r.add("pairord", outs[0].NGG.PairwiseOrderedness, len(outs[0].NGG.Ranking))
	r.add("heap_mb", heap, 1)
	r.Correct = len(r.Problems) == 0
	r.Report["study_s"] = seconds(walls)
	r.Report["setup_s"] = seconds(setups)
	r.Report["loop"] = "closed, one caller"
	r.Report["domains"] = outs[0].Domains
	r.Report["terms"] = studyTerms
	r.Report["tfidf_pairord"] = outs[0].TFIDF.PairwiseOrderedness
	r.Report["replay_stages_s"] = reps[0].stageSeconds()
	r.Report["replays"] = len(reps)
	fmt.Printf("studies %d, median %.3f s; replay %.3f s\n", len(outs), wall, reps[0].Wall.Seconds())
	return r, nil
}

// topAccuracy is the accuracy of calling exactly the top L entries of a
// ranking legitimate and the rest illegitimate, L being the number of
// legitimate pharmacies in it.
func topAccuracy(ranking []core.RankedPharmacy) float64 {
	legit := 0
	for _, p := range ranking {
		if p.Label == ml.Legitimate {
			legit++
		}
	}
	correct := 0
	for i, p := range ranking {
		if (i < legit) == (p.Label == ml.Legitimate) {
			correct++
		}
	}
	return ratio(float64(correct), float64(len(ranking)))
}

// traceStudy is the traced run of rank-study: one study through the
// library (its wall time and feature-cache traffic), then the
// public-call replay untraced and traced. Stage times come from the
// traced replay; the residual is the study's wall time minus their sum.
func traceStudy(ctx context.Context, o options, w *webgen.World) (*runResult, error) {
	r := &runResult{Report: map[string]any{}}
	before := core.FeatureCacheScopeStats()
	out, err := study(ctx, w, o.Seed)
	if err != nil {
		return nil, err
	}
	after := core.FeatureCacheScopeStats()
	var hits, misses uint64
	for scope, st := range after {
		hits += st.Hits - before[scope].Hits
		misses += st.Misses - before[scope].Misses
	}
	plain, err := replay(ctx, w, o.Seed, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := replay(ctx, w, o.Seed, tr)
	if err != nil {
		return nil, err
	}
	spans := tr.take()
	if err := writeSpans(o.Spans, spans); err != nil {
		return nil, err
	}
	r.Attempted = 1
	for _, rep := range []replayOut{plain, traced} {
		if out.NGG.PairwiseOrderedness != rep.NGGPairord || out.TFIDF.PairwiseOrderedness != rep.TFIDFPairord {
			r.Failed = 1
			r.problem("RankCV pairord %v, %v; replay %v, %v", out.NGG.PairwiseOrderedness, out.TFIDF.PairwiseOrderedness, rep.NGGPairord, rep.TFIDFPairord)
		}
	}
	st := traced.Stages
	var stageSum time.Duration
	for _, d := range st {
		stageSum += d
	}
	for _, name := range concat(servingLayers, loadgenLayers) {
		r.add(name, 0, 0)
	}
	r.add("dataset.build_s", st["dataset.build"].Seconds(), 1)
	r.add("ngram.build_s", st["ngram.build"].Seconds(), traced.Docs)
	r.add("ngram.merge_s", st["ngram.merge"].Seconds(), studyFolds)
	r.add("ngram.compare_s", st["ngram.compare"].Seconds(), len(traced.CompareMS))
	r.add("ngram.doc_edges", traced.DocEdges, traced.Docs)
	r.add("ngram.class_edges", traced.ClassEdges, 2*studyFolds)
	r.add("vectorize.dataset_s", st["vectorize.dataset"].Seconds(), 1+studyFolds)
	r.add("ml.fit_s", st["ml.fit"].Seconds(), 2+studyFolds)
	r.add("ml.prob_s", st["ml.prob"].Seconds(), studyFolds)
	r.add("trust.trustrank_s", st["trust.trustrank"].Seconds(), 1+2*studyFolds)
	r.add("featcache.hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	r.add("study.residual_s", (out.Wall - stageSum).Seconds(), 1)
	r.add("trace.overhead_pct", 100*ratio((traced.Wall-plain.Wall).Seconds(), plain.Wall.Seconds()), 1)
	r.Correct = len(r.Problems) == 0
	r.Report["study_s"] = out.Wall.Seconds()
	r.Report["replay_s"] = plain.Wall.Seconds()
	r.Report["traced_replay_s"] = traced.Wall.Seconds()
	r.Report["replay_stages_s"] = traced.stageSeconds()
	r.Report["spans"] = len(spans)
	return r, nil
}

// replayOut is the outcome of one public-call replay of a study.
type replayOut struct {
	Wall   time.Duration
	Stages map[string]time.Duration
	// CompareMS holds the latency of every per-document N-gram-graph
	// ranking (one document against one fold's class graphs).
	CompareMS                []float64
	Docs                     int
	DocEdges, ClassEdges     float64
	NGGPairord, TFIDFPairord float64
}

func (r replayOut) stageSeconds() map[string]float64 {
	out := map[string]float64{}
	for k, v := range r.Stages {
		out[k] = v.Seconds()
	}
	return out
}

// replayer times the stages of one replay and, when traced, records a
// span per stage and per document under one root span.
type replayer struct {
	tr     *tracer
	root   span
	stages map[string]time.Duration
}

// stage runs fn as one timed stage, passing it the stage span's ID (0
// when untraced) as the parent of any per-document spans.
func (p *replayer) stage(name string, fn func(parent uint64)) {
	var s span
	if p.tr != nil {
		s = span{Trace: p.root.Trace, ID: p.tr.id(), Parent: p.root.ID, Name: name, Start: p.tr.now()}
	}
	t0 := time.Now()
	fn(s.ID)
	p.stages[name] += time.Since(t0)
	if p.tr != nil {
		s.End = p.tr.now()
		p.tr.add(s)
	}
}

// each runs fn(i) for i in [0, n) on one worker per CPU and returns each
// call's latency in milliseconds, recording a span per call when traced.
func (p *replayer) each(n int, name string, parent uint64, fn func(i int)) []float64 {
	lat := make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				var s span
				if p.tr != nil {
					s = span{Trace: p.root.Trace, ID: p.tr.id(), Parent: parent, Name: name, Start: p.tr.now()}
				}
				t0 := time.Now()
				fn(i)
				lat[i] = float64(time.Since(t0)) / 1e6
				if p.tr != nil {
					s.End = p.tr.now()
					p.tr.add(s)
				}
			}
		}()
	}
	wg.Wait()
	return lat
}

// replay re-runs a study through the public dataset, vectorize, ml,
// ngram, trust and core calls the library composes, stage by stage, so
// each layer's share can be timed from outside. Its rankings must equal
// RankCV's.
func replay(ctx context.Context, w *webgen.World, seed int64, tr *tracer) (replayOut, error) {
	core.ResetFeatureCache()
	p := &replayer{tr: tr, stages: map[string]time.Duration{}}
	if tr != nil {
		p.root = span{Trace: tr.id(), Name: "study.replay", Start: tr.now()}
		p.root.ID = p.root.Trace
	}
	t0 := time.Now()
	out := replayOut{}
	var (
		snap *dataset.Snapshot
		err  error
	)
	p.stage("dataset.build", func(uint64) {
		snap, err = dataset.BuildCtx(ctx, "study", w, w.Domains(), w.Labels(), dataset.BuildOptions{Workers: runtime.NumCPU()})
	})
	if err != nil {
		return out, fmt.Errorf("replay crawl: %w", err)
	}
	labels, names := snap.Labels(), snap.Domains()
	if err := replayTrain(p, snap, seed); err != nil {
		return out, err
	}

	folds := eval.StratifiedKFold(&ml.Dataset{Dim: 1, X: make([]ml.Vector, len(labels)), Y: labels}, studyFolds, seed)
	seedsOf := func(trainIdx []int) map[string]float64 {
		seeds := map[string]float64{}
		for _, i := range trainIdx {
			if labels[i] == ml.Legitimate {
				seeds[names[i]] = 1
			}
		}
		return seeds
	}
	network := func(trainIdx []int) ([]float64, error) {
		var scores []float64
		var err error
		p.stage("trust.trustrank", func(uint64) { scores, err = core.NetworkScores(snap, seedsOf(trainIdx), core.NetworkConfig{}) })
		return scores, err
	}

	// N-gram graphs: document graphs once, then per fold the class
	// graphs of a random half of the training fold and Equation 3.
	var docs []string
	graphs := make([]*ngram.Graph, len(labels))
	p.stage("ngram.build", func(parent uint64) {
		docs = join(snap.SubsampledTerms(studyTerms, seed))
		p.each(len(docs), "ngram.document", parent, func(i int) { graphs[i] = ngram.FromDocument(docs[i]) })
	})
	out.Docs = len(docs)
	for _, g := range graphs {
		out.DocEdges += float64(g.Size())
	}
	out.DocEdges = ratio(out.DocEdges, float64(len(graphs)))
	var ngg, tfidf []core.RankedPharmacy
	for f := range folds {
		trainIdx, testIdx := folds.TrainTest(f)
		perm := rand.New(rand.NewSource(seed + 17)).Perm(len(trainIdx))
		var legit, illegit *ngram.Graph
		p.stage("ngram.merge", func(uint64) {
			legit, illegit = ngram.New(), ngram.New()
			for _, k := range perm[:len(trainIdx)/2] {
				if i := trainIdx[k]; labels[i] == ml.Legitimate {
					legit.Merge(graphs[i])
				} else {
					illegit.Merge(graphs[i])
				}
			}
		})
		out.ClassEdges += float64(legit.Size()+illegit.Size()) / float64(2*studyFolds)
		text := make([]float64, len(docs))
		// Ranking allocates nothing; collecting the merges' garbage first
		// keeps a collection they triggered out of the per-document
		// latencies, which then time the comparison kernel alone.
		runtime.GC()
		p.stage("ngram.compare", func(parent uint64) {
			lat := p.each(len(docs), "ngram.rank", parent, func(i int) { text[i] = ngram.TextRank(graphs[i], legit, illegit) / 8 })
			out.CompareMS = append(out.CompareMS, lat...)
		})
		net, err := network(trainIdx)
		if err != nil {
			return out, err
		}
		ngg = appendRanked(ngg, snap, testIdx, text, net)
	}
	graphs = nil

	// TF-IDF: per fold, the (cached) term-vector dataset, a classifier
	// fitted on the training fold and its probabilities for everyone.
	for f := range folds {
		trainIdx, testIdx := folds.TrainTest(f)
		var ds *ml.Dataset
		p.stage("vectorize.dataset", func(uint64) {
			ds = core.TFIDFDataset(snap, core.TextConfig{Classifier: core.NBM, Terms: studyTerms, Seed: seed})
		})
		clf, err := core.NewClassifier(core.NBM, seed)
		if err != nil {
			return out, err
		}
		if c, ok := clf.(interface{ SetCalibrate(bool) }); ok {
			c.SetCalibrate(false)
		}
		p.stage("ml.fit", func(uint64) { err = clf.Fit(ds.Subset(trainIdx)) })
		if err != nil {
			return out, err
		}
		text := make([]float64, ds.Len())
		p.stage("ml.prob", func(uint64) {
			for i, x := range ds.X {
				text[i] = clf.Prob(x)
			}
		})
		net, err := network(trainIdx)
		if err != nil {
			return out, err
		}
		tfidf = appendRanked(tfidf, snap, testIdx, text, net)
	}
	out.NGGPairord = pooledPairord(ngg)
	out.TFIDFPairord = pooledPairord(tfidf)
	out.Wall = time.Since(t0)
	out.Stages = p.stages
	if tr != nil {
		p.root.End = tr.now()
		tr.add(p.root)
	}
	return out, nil
}

// replayTrain replays core.Train: the term-vector dataset, the text
// classifier, TrustRank over the training graph and the network
// classifier. Sketch and fingerprint are left to the residual.
func replayTrain(p *replayer, snap *dataset.Snapshot, seed int64) error {
	var ds *ml.Dataset
	p.stage("vectorize.dataset", func(uint64) {
		corpus := vectorize.NewCorpus(snap.SubsampledTerms(studyTerms, seed), snap.Labels(), snap.Domains())
		ds = corpus.Dataset(vectorize.WeightCounts)
	})
	text, err := core.NewClassifier(core.NBM, seed)
	if err != nil {
		return err
	}
	p.stage("ml.fit", func(uint64) { err = text.Fit(ds) })
	if err != nil {
		return err
	}
	seeds := map[string]float64{}
	for _, ph := range snap.Pharmacies {
		if ph.Label == ml.Legitimate {
			seeds[ph.Domain] = 1
		}
	}
	var scores []float64
	p.stage("trust.trustrank", func(uint64) { scores, err = core.NetworkScores(snap, seeds, core.NetworkConfig{}) })
	if err != nil {
		return err
	}
	netDS := &ml.Dataset{Dim: 1}
	for i, ph := range snap.Pharmacies {
		netDS.Add(ml.NewVector([]float64{scores[i]}), ph.Label, ph.Domain)
	}
	net, err := core.NewClassifier(core.NB, seed)
	if err != nil {
		return err
	}
	p.stage("ml.fit", func(uint64) { err = net.Fit(netDS) })
	return err
}

// join renders term lists as the space-separated documents the N-gram
// graph representation reads.
func join(terms [][]string) []string {
	out := make([]string, len(terms))
	for i, ts := range terms {
		out[i] = strings.Join(ts, " ")
	}
	return out
}

func appendRanked(dst []core.RankedPharmacy, snap *dataset.Snapshot, testIdx []int, text, net []float64) []core.RankedPharmacy {
	for _, i := range testIdx {
		ph := snap.Pharmacies[i]
		dst = append(dst, core.RankedPharmacy{Domain: ph.Domain, Label: ph.Label, Score: text[i] + net[i], TextRank: text[i], NetworkRank: net[i]})
	}
	return dst
}

// pooledPairord orders the pooled held-out scores as RankCV does and
// returns their pairwise orderedness.
func pooledPairord(r []core.RankedPharmacy) float64 {
	sort.SliceStable(r, func(a, b int) bool {
		if r[a].Score != r[b].Score {
			return r[a].Score > r[b].Score
		}
		return r[a].Domain < r[b].Domain
	})
	scores := make([]float64, len(r))
	labels := make([]int, len(r))
	for i, p := range r {
		scores[i], labels[i] = p.Score, p.Label
	}
	return eval.PairwiseOrderedness(scores, labels)
}
