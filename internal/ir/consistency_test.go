package ir_test

import (
	"fmt"
	"testing"

	"orap/internal/cnf"
	"orap/internal/faultsim"
	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/sat"
	"orap/internal/sim"
)

// gateCircuit builds a minimal circuit exposing one gate of type t as the
// only primary output, with as many primary inputs as the gate needs.
func gateCircuit(t *testing.T, gt netlist.GateType, arity int) *netlist.Circuit {
	t.Helper()
	c := netlist.New(fmt.Sprintf("consistency-%v-%d", gt, arity))
	ins := make([]int, arity)
	for i := range ins {
		id, err := c.AddInput(fmt.Sprintf("i%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ins[i] = id
	}
	var po int
	switch gt {
	case netlist.Input:
		po = ins[0]
	case netlist.Const0, netlist.Const1:
		id, err := c.AddConst(gt == netlist.Const1, "k")
		if err != nil {
			t.Fatal(err)
		}
		po = id
	default:
		po = c.MustAddGate(gt, "g", ins...)
	}
	c.MarkOutput(po)
	if _, err := ir.Compile(c); err != nil {
		t.Fatal(err)
	}
	return c
}

// engines evaluates the circuit's single output on one input pattern
// through every evaluation backend and returns the four results in the
// order: IR scalar kernel, bit-parallel word kernel, fault simulator's
// good-value path, CNF via SAT.
func engines(t *testing.T, c *netlist.Circuit, pattern []bool) [4]bool {
	t.Helper()
	var out [4]bool

	// 1. IR scalar kernel.
	prog, err := ir.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Eval(pattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	out[0] = res[0]

	// 2. Bit-parallel word kernel via sim.Parallel.
	p, err := sim.ForProgram(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range c.PIs {
		p.SetInputConst(id, pattern[i])
	}
	p.Run()
	out[1] = p.Value(c.POs[0])[0]&1 == 1

	// 3. Fault simulator: a stuck-at-0 fault on the output is detected by
	// a pattern exactly when the good output value is 1 on that pattern.
	fs, err := faultsim.ForProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	detected, err := fs.DetectsEach([]faultsim.Fault{{Node: c.POs[0], Pin: -1, SA1: false}}, pattern)
	if err != nil {
		t.Fatal(err)
	}
	out[2] = detected[0]

	// 4. CNF: Tseitin-encode with the inputs fixed and read the output
	// variable from the satisfying model.
	s := sat.New()
	inst, err := cnf.EncodeProgram(s, prog, cnf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cnf.ConstrainBits(s, inst.PIVars, pattern); err != nil {
		t.Fatal(err)
	}
	ok, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("CNF of %s UNSAT under fixed inputs", c.Name)
	}
	out[3] = s.Value(inst.POVars[0]) == sat.True
	return out
}

// wideWords is the block width of wideTable: more than one word, so the
// wide kernel runs rather than its single-word form.
const wideWords = 2

// wideTable evaluates the single output of c over its whole truth table
// in one bit-parallel run of wideWords words: lane l carries pattern
// l mod 2^arity, whose bit i drives primary input i. It returns the
// output bit of every lane.
func wideTable(t *testing.T, c *netlist.Circuit, arity int) []bool {
	t.Helper()
	p, err := sim.ForProgram(ir.MustCompile(c), wideWords)
	if err != nil {
		t.Fatal(err)
	}
	lanes := make([]bool, 64*wideWords)
	for i, id := range c.PIs {
		w := make([]uint64, wideWords)
		for l := range lanes {
			if (l%(1<<arity))&(1<<i) != 0 {
				w[l/64] |= 1 << (l % 64)
			}
		}
		p.SetInput(id, w)
	}
	p.Run()
	out := p.Value(c.POs[0])
	for l := range lanes {
		lanes[l] = out[l/64]>>(l%64)&1 == 1
	}
	return lanes
}

// TestCrossEngineConsistency checks, for every gate type, that the IR
// scalar kernel, the bit-parallel simulator, the fault simulator's
// good-value evaluation and the CNF encoding agree on the full truth
// table, and that a wide bit-parallel run with the table spread across
// its lanes agrees in every lane. Arities 2, 3 and 4 reach the wide
// kernel's fused two- and three-input forms and its n-ary loop. Any
// divergence between the engines — all of which now reduce to the
// shared IR kernel or its clause-level mirror — fails here first.
func TestCrossEngineConsistency(t *testing.T) {
	cases := []struct {
		gt      netlist.GateType
		arities []int
	}{
		{netlist.Input, []int{1}},
		{netlist.Const0, []int{0}},
		{netlist.Const1, []int{0}},
		{netlist.Buf, []int{1}},
		{netlist.Not, []int{1}},
		{netlist.And, []int{2, 3, 4}},
		{netlist.Nand, []int{2, 3, 4}},
		{netlist.Or, []int{2, 3, 4}},
		{netlist.Nor, []int{2, 3, 4}},
		{netlist.Xor, []int{2, 3, 4}}, // arity 3 exercises the CNF XOR chain
		{netlist.Xnor, []int{2, 3, 4}},
	}
	engineName := [4]string{"ir.Eval", "sim.Parallel", "faultsim", "cnf+sat"}
	for _, tc := range cases {
		for _, arity := range tc.arities {
			t.Run(fmt.Sprintf("%v/%d", tc.gt, arity), func(t *testing.T) {
				c := gateCircuit(t, tc.gt, arity)
				wide := wideTable(t, c, arity)
				pattern := make([]bool, arity)
				for bits := 0; bits < 1<<arity; bits++ {
					for i := range pattern {
						pattern[i] = bits&(1<<i) != 0
					}
					got := engines(t, c, pattern)
					for e := 1; e < len(got); e++ {
						if got[e] != got[0] {
							t.Fatalf("%v on %v: %s says %v but %s says %v",
								tc.gt, pattern, engineName[0], got[0], engineName[e], got[e])
						}
					}
					for l := bits; l < len(wide); l += 1 << arity {
						if wide[l] != got[0] {
							t.Fatalf("%v on %v: %s says %v but %d-word sim.Parallel lane %d says %v",
								tc.gt, pattern, engineName[0], got[0], wideWords, l, wide[l])
						}
					}
				}
			})
		}
	}
}
