package ir_test

import (
	"sync"
	"testing"

	"orap/internal/bench"
	"orap/internal/circuits"
	"orap/internal/ir"
	"orap/internal/sim"
)

// TestConcurrentEvalNoWarmup evaluates a freshly parsed circuit from 8
// goroutines with no warm-up call of any kind. Before the compiled IR,
// netlist.Circuit carried lazily cached topo/level fields and every
// concurrent consumer needed a serial topological-order warm-up first;
// this test (run under -race in CI) pins the guarantee that no such
// warm-up is needed anywhere anymore.
func TestConcurrentEvalNoWarmup(t *testing.T) {
	c, err := bench.ParseString(circuits.C17Bench, "c17")
	if err != nil {
		t.Fatal(err)
	}
	pi := make([]bool, c.NumInputs())
	for i := range pi {
		pi[i] = i%2 == 0
	}
	want, err := sim.Eval(c, pi, nil)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				var got []bool
				var err error
				switch iter % 3 {
				case 0:
					// Fresh compile per call, racing other compiles.
					got, err = sim.Eval(c, pi, nil)
				case 1:
					// Compile + scalar program eval.
					prog, cerr := ir.Compile(c)
					if cerr != nil {
						errs[g] = cerr
						return
					}
					got, err = prog.Eval(pi, nil)
				default:
					// Bit-parallel evaluator built from scratch.
					prog, cerr := ir.Compile(c)
					if cerr != nil {
						errs[g] = cerr
						return
					}
					p, perr := sim.ForProgram(prog, 1)
					if perr != nil {
						errs[g] = perr
						return
					}
					for i, id := range c.PIs {
						p.SetInputConst(id, pi[i])
					}
					p.Run()
					got = make([]bool, len(c.POs))
					for i, id := range c.POs {
						got[i] = p.Value(id)[0]&1 == 1
					}
					p.Release()
				}
				if err != nil {
					errs[g] = err
					return
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("goroutine %d iter %d: output %d = %v, want %v", g, iter, i, got[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
