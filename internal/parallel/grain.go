package parallel

import (
	"fmt"
	"sync"
)

// GrainPlan describes how a two-level training loop — an outer pass
// over cross-validation folds, an inner pass over each fold's
// documents — splits a worker budget between the levels, and how the
// inner pass is chunked. It is produced by PlanGrain and consumed by
// the training kernels (ensemble CV, NGG fold featurization, webgen
// rendering uses the degenerate folds=1 case).
type GrainPlan struct {
	// FoldWorkers bounds the outer (fold-level) fan-out.
	FoldWorkers int
	// DocWorkers bounds the inner (document-level) fan-out of each
	// fold; 1 means the inner pass runs inline on the fold's worker.
	DocWorkers int
	// DocGrain is the contiguous chunk size handed to one inner worker
	// per dispatch (see ForGrain). Always >= 1.
	DocGrain int
	// Level names the chosen partitioning: "fold", "doc" or "hybrid".
	Level string
}

// String renders the plan compactly for bench legs and logs, e.g.
// "fold×3·doc×1·g40" — outer workers, inner workers, inner grain.
func (p GrainPlan) String() string {
	return fmt.Sprintf("%s fold×%d·doc×%d·g%d", p.Level, p.FoldWorkers, p.DocWorkers, p.DocGrain)
}

// Tuning constants of the grain cost model. Per-document work in the
// training kernels costs tens of microseconds against a ~1 µs
// goroutine handoff, so a worker should receive at least grainFloor
// documents per dispatch; chunksPerWorker extra chunks per worker keep
// the tail load-balanced when document costs are uneven.
const (
	chunksPerWorker = 4
	grainCeil       = 16 // matches the hand-tuned NGG document grain
)

// PlanGrain picks fold-level vs document-level partitioning for a
// training loop of `folds` outer tasks over `docsPerFold` inner items,
// given a resolved worker budget.
//
// The cost model: a fold's inner pass is a long contiguous run of
// fine-grained items, so parallelism at the fold level is free (no
// extra handoffs, perfect locality) while parallelism at the document
// level pays one handoff per chunk. Hence:
//
//   - workers <= folds: the outer level alone saturates the pool.
//     Each fold runs its inner pass inline in one maximal chunk —
//     zero extra dispatches ("fold").
//   - folds == 1 (or 0): all parallelism must come from the inner
//     level ("doc"). The inner grain splits the documents into about
//     chunksPerWorker chunks per worker, capped at grainCeil so the
//     tail stays balanced on uneven documents.
//   - otherwise: both levels share the budget ("hybrid"). Every fold
//     gets an outer slot and ceil(workers/folds) inner workers, so the
//     total concurrency stays within one fold of the budget.
//
// The plan never changes results — ForGrain's output is identical at
// any worker count and grain — only how the budget is spent; the
// chosen plan is recorded per call site (see PlanGrainFor) so the
// bench efficiency gate can attack bad choices.
func PlanGrain(workers, folds, docsPerFold int) GrainPlan {
	w := Workers(workers)
	if folds < 1 {
		folds = 1
	}
	if docsPerFold < 1 {
		docsPerFold = 1
	}
	grainFor := func(docWorkers int) int {
		g := docsPerFold / (chunksPerWorker * docWorkers)
		if g > grainCeil {
			g = grainCeil
		}
		if g < 1 {
			g = 1
		}
		return g
	}
	switch {
	case folds == 1:
		return GrainPlan{Level: "doc", FoldWorkers: 1, DocWorkers: w, DocGrain: grainFor(w)}
	case w <= folds:
		return GrainPlan{Level: "fold", FoldWorkers: w, DocWorkers: 1, DocGrain: docsPerFold}
	default:
		inner := (w + folds - 1) / folds
		return GrainPlan{Level: "hybrid", FoldWorkers: folds, DocWorkers: inner, DocGrain: grainFor(inner)}
	}
}

// grainLog records the most recent plan per named call site, so the
// bench harness can attach the autotuner's choices to each measured
// leg. Bounded implicitly by the number of distinct call sites.
var (
	grainMu  sync.Mutex
	grainLog = map[string]GrainPlan{}
)

// PlanGrainFor is PlanGrain with the decision recorded under a call
// site name (e.g. "ensemble-cv", "webgen-render") for bench reporting.
func PlanGrainFor(site string, workers, folds, docsPerFold int) GrainPlan {
	p := PlanGrain(workers, folds, docsPerFold)
	grainMu.Lock()
	grainLog[site] = p
	grainMu.Unlock()
	return p
}

// GrainDecisions returns the last recorded plan per call site since
// the previous ResetGrainDecisions, rendered as strings, with call
// sites in sorted order for stable output.
func GrainDecisions() map[string]string {
	grainMu.Lock()
	defer grainMu.Unlock()
	out := make(map[string]string, len(grainLog))
	for site, p := range grainLog {
		out[site] = p.String()
	}
	return out
}

// ResetGrainDecisions clears the recorded plans (the bench harness
// calls it before each measured leg).
func ResetGrainDecisions() {
	grainMu.Lock()
	grainLog = map[string]GrainPlan{}
	grainMu.Unlock()
}
