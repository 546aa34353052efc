// Package par provides the bounded worker-pool primitives behind every
// parallel loop in this repository: ordered fan-out over an index space,
// per-worker scratch state, and early abort on the first error.
//
// Determinism contract: the helpers distribute work items dynamically, so
// callers must make each item's result a pure function of its index (never
// of the worker that happened to run it) and write results into
// index-addressed slots. Under that contract every driver built on this
// package produces bit-identical output at any worker count — the property
// the exp-layer determinism tests pin down.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count setting: n if positive, otherwise
// runtime.NumCPU(). Every parallel option in this repository funnels
// through this so "0" uniformly means "all cores" and "1" means serial.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (0 = all cores). It aborts scheduling new items after the first error
// and returns the error with the lowest index among those observed, so
// error reporting is as stable as the abort semantics allow. With one
// worker (or n <= 1) it runs inline with zero goroutine overhead.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachWorker(workers, n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach for callers that keep per-worker scratch state
// (an evaluator, a value buffer): fn additionally receives the worker
// slot in [0, workers) that is running the item. Slot w is only ever used
// by one goroutine at a time, so scratch indexed by it needs no locking.
// Work is handed out dynamically, so the mapping of items to slots varies
// between runs — results must depend on i only.
func ForEachWorker(workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	next.Store(-1)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					fail(i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// Partition splits [0, n) into parts contiguous half-open ranges of
// near-equal size (the first n%parts ranges are one longer). Empty ranges
// are omitted, so the result has min(n, parts) entries. It is the standard
// way to batch a slice for ForEachWorker when per-item dispatch would be
// too fine-grained.
func Partition(n, parts int) [][2]int {
	if n <= 0 || parts <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	size, rem := n/parts, n%parts
	lo := 0
	for p := 0; p < parts; p++ {
		hi := lo + size
		if p < rem {
			hi++
		}
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
		lo = hi
	}
	return out
}
