package par

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersDefaults(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Fatalf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Fatalf("Workers(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		if err := ForEach(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	if err := ForEach(4, 0, func(int) error { called = true; return nil }); err != nil || called {
		t.Fatalf("n=0: err=%v called=%v", err, called)
	}
	if err := ForEach(4, -5, func(int) error { called = true; return nil }); err != nil || called {
		t.Fatalf("n<0: err=%v called=%v", err, called)
	}
}

func TestForEachAbortsOnError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := ForEach(4, 10000, func(i int) error {
		ran.Add(1)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Early abort: the pool must not have drained the whole index space.
	if n := ran.Load(); n == 10000 {
		t.Fatalf("no early abort: all %d items ran", n)
	}
}

func TestForEachReturnsLowestIndexedError(t *testing.T) {
	// Serially the first failing index must win outright.
	errA, errB := errors.New("a"), errors.New("b")
	err := ForEach(1, 10, func(i int) error {
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("serial err = %v, want first error", err)
	}
}

func TestForEachWorkerSlotBounds(t *testing.T) {
	const workers, n = 3, 200
	var bad atomic.Int32
	if err := ForEachWorker(workers, n, func(w, i int) error {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d items saw a worker slot outside [0,%d)", bad.Load(), workers)
	}
}

func TestForEachWorkerScratchIsExclusive(t *testing.T) {
	// Per-slot scratch counters must never tear: each slot is owned by one
	// goroutine at a time, so plain int increments are safe.
	const workers, n = 4, 5000
	scratch := make([]int, workers)
	if err := ForEachWorker(workers, n, func(w, i int) error {
		scratch[w]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range scratch {
		total += c
	}
	if total != n {
		t.Fatalf("scratch total = %d, want %d", total, n)
	}
}
