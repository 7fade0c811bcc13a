package bench

import (
	"math/rand"
	"time"

	"pharmaverify/internal/eval"
	"pharmaverify/internal/ml/ensemble"
	"pharmaverify/internal/parallel"
	"pharmaverify/internal/webgen"
)

// This file holds the training-path kernel micro-benchmarks: the
// ensemble-selection hillclimb and webgen world generation, each
// measured against its retained naive reference exactly like the
// feature kernels in kernel.go. Both run single-threaded (the process
// worker default is pinned to 1 for the measurement) so the recorded
// Speedup is the kernel's algorithmic win, not parallelism — the
// worker-matrix entries already measure scaling.

// trainingSelectionWorkload is the synthetic selection problem: a
// library of probability columns over a labeled hillclimb set, shaped
// like the Table-8 ensemble experiment (a dozen-model library over a
// few hundred instances).
func trainingSelectionWorkload() (probs [][]float64, labels []int) {
	rng := rand.New(rand.NewSource(kernelSeed))
	const models, n = 28, 420
	labels = make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(2)
	}
	probs = make([][]float64, models)
	for m := range probs {
		probs[m] = make([]float64, n)
		skill := 0.1 + 0.8*rng.Float64() // models of varying quality
		for i := range probs[m] {
			p := rng.Float64()
			if rng.Float64() < skill {
				p = 0.5*p + 0.5*float64(labels[i])
			}
			probs[m][i] = p
		}
	}
	return probs, labels
}

// trainingWebgenConfig is the world the generation kernel is measured
// on: large enough that rendering dominates, small enough that one
// naive generation stays in the milliseconds.
var trainingWebgenConfig = webgen.Config{Seed: kernelSeed, Snapshot: 1, NumLegit: 12, NumIllegit: 60}

// worldsIdentical compares every site of two worlds page by page.
func worldsIdentical(a, b *webgen.World) bool {
	ad, bd := a.Domains(), b.Domains()
	if len(ad) != len(bd) {
		return false
	}
	for i, d := range ad {
		if bd[i] != d {
			return false
		}
		sa, sb := a.Site(d), b.Site(d)
		if len(sa.Paths) != len(sb.Paths) || len(sa.Pages) != len(sb.Pages) {
			return false
		}
		for j, p := range sa.Paths {
			if sb.Paths[j] != p || sa.Pages[p] != sb.Pages[p] {
				return false
			}
		}
	}
	return true
}

// RunTrainingBenchmarks measures the training-path kernels against
// their naive references on fixed synthetic workloads: the kernelized
// greedy ensemble selection vs SelectGreedyReference, and pooled
// parallel webgen generation vs GenerateReference. benchtime <= 0 uses
// DefaultKernelBenchtime per measurement. Entries land in the report's
// "training" section and are gated by the same floors/ratios as the
// feature kernels (see CheckKernelRegression).
func RunTrainingBenchmarks(benchtime time.Duration) []KernelEntry {
	if benchtime <= 0 {
		benchtime = DefaultKernelBenchtime
	}
	// Pin the process worker default to 1: the entries record
	// single-thread algorithmic wins (see file comment).
	prev := parallel.Default()
	parallel.SetDefault(1)
	defer parallel.SetDefault(prev)

	var entries []KernelEntry

	// Greedy ensemble selection: the hillclimb core.Train and EnsembleCVCtx
	// run per fold. Naive = metric re-evaluated inside the sort
	// comparator and a fresh averaging slice per candidate bag; kernel =
	// precomputed single-model score table + shared scratch.
	{
		probs, labels := trainingSelectionWorkload()
		e := KernelEntry{
			ID:        "ensemble-selection",
			Desc:      "greedy ensemble selection over a 28-model library (score table + shared scratch vs per-comparison metric calls + per-bag slices)",
			Identical: true,
		}
		want := ensemble.SelectGreedyReference(probs, labels, 2, 20, eval.AUC)
		got := ensemble.SelectGreedy(probs, labels, 2, 20, eval.AUC)
		if len(got) != len(want) {
			e.Identical = false
		} else {
			for i := range got {
				if got[i] != want[i] {
					e.Identical = false
				}
			}
		}
		measurePair(&e, benchtime, func() {
			sel := ensemble.SelectGreedyReference(probs, labels, 2, 20, eval.AUC)
			kernelSink += float64(len(sel))
		}, func() {
			sel := ensemble.SelectGreedy(probs, labels, 2, 20, eval.AUC)
			kernelSink += float64(len(sel))
		})
		entries = append(entries, e)
	}

	// Webgen world generation: every evaluation Env and serving test
	// builds worlds; rendering dominates. Naive = strings.Builder + fmt
	// per page; kernel = pooled append-based render buffers.
	{
		e := KernelEntry{
			ID:        "webgen-world",
			Desc:      "synthetic world generation, 72 sites (pooled append render kernel vs strings.Builder+fmt reference)",
			Identical: worldsIdentical(webgen.Generate(trainingWebgenConfig), webgen.GenerateReference(trainingWebgenConfig)),
		}
		measurePair(&e, benchtime, func() {
			w := webgen.GenerateReference(trainingWebgenConfig)
			kernelSink += float64(len(w.Domains()))
		}, func() {
			w := webgen.Generate(trainingWebgenConfig)
			kernelSink += float64(len(w.Domains()))
		})
		entries = append(entries, e)
	}

	return entries
}
