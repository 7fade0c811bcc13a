package parallel

import (
	"context"
	"sync"
	"sync/atomic"
)

// ForCtx runs f(0) … f(n-1) on up to Workers(workers) goroutines and
// returns when all calls have finished. Items are handed out in index
// order; with workers resolving to 1 the loop runs inline with no
// goroutines. A panic in any f is re-raised in the caller (the one
// from the lowest index, matching a sequential loop).
//
// Once ctx is cancelled no further indices are dispatched, the
// in-flight calls are drained (they are never interrupted mid-item),
// and the context's error is returned. A nil return means every index
// ran.
//
// Cancellation preserves the determinism contract in truncated form:
// the set of indices that ran is a scheduling-dependent subset, but
// every f(i) that did run observed exactly the inputs a sequential loop
// would have given it — cancellation may truncate work, never reorder
// or corrupt it. Callers that need to know which items completed must
// record that inside f.
func ForCtx(ctx context.Context, n, workers int, f func(i int)) error {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			f(i)
		}
		return ctx.Err()
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicIdx = -1
		panicVal any
	)
	done := ctx.Done()
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicIdx < 0 || i < panicIdx {
								panicIdx, panicVal = i, r
							}
							panicMu.Unlock()
						}
					}()
					f(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicIdx >= 0 {
		panic(panicVal)
	}
	return ctx.Err()
}

// MapErrCtx runs f for every index on up to Workers(workers)
// goroutines and returns the results ordered by index. If any call
// fails, the error of the lowest failing index is returned — the same
// error a sequential loop would surface first — and the results are
// discarded. On cancellation the results are likewise discarded and
// the error is that of the lowest index whose f failed before the
// cancel, if any, otherwise ctx.Err().
func MapErrCtx[T any](ctx context.Context, n, workers int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	cancelErr := ForCtx(ctx, n, workers, func(i int) {
		out[i], errs[i] = f(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if cancelErr != nil {
		return nil, cancelErr
	}
	return out, nil
}
