package cnf

import (
	"fmt"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/sat"
)

// Miter is the SAT-attack formulation: two copies of a locked circuit that
// share primary inputs but have independent keys K1 and K2, with a
// constraint that at least one output differs. Only the key inputs' cone
// of influence is duplicated per copy (see NewMiter), and the key-only
// part of that cone only per key vector (see AddIOConstraint).
type Miter struct {
	S *sat.Solver
	// Prog is the compiled locked circuit; every per-query copy is
	// encoded from it, so the circuit is compiled exactly once per miter.
	Prog   *ir.Program
	PIVars []sat.Var
	// Support lists the primary inputs that some encoded gate reads, as
	// ascending indices into PIVars: the fan-in support of the
	// key-reachable outputs. No clause mentions the other inputs'
	// variables, so a model's values for them are arbitrary.
	Support []int
	Key1    []sat.Var
	Key2    []sat.Var
	// Act is an activation variable guarding the output-disequality
	// clause: solve under assumption Act=true to search for a
	// distinguishing input, and under Act=false to extract a key that is
	// merely consistent with all recorded observations.
	Act sat.Var

	coi       *coiInfo
	sharedVar []sat.Var // per node: shared support variable, -1 if not encoded
	// keyOnly1 and keyOnly2 are the variables addConePair gave the
	// key-only gates of the cone under Key1 and Key2, indexed like
	// coi.gates, -1 for the other gates. Every IO copy under that key
	// vector reads them instead of encoding those gates again.
	keyOnly1, keyOnly2 []sat.Var
	constTrue          sat.Var   // lazily allocated const-true var for query folding
	evalBuf            []bool    // per-node evaluation buffer for query folding
	copyVar            []sat.Var // per node: encodeCone's variables, reused by every copy
}

// AssumeDiff returns the assumption literal enabling the disequality.
func (m *Miter) AssumeDiff() sat.Lit { return sat.MkLit(m.Act, false) }

// AssumeNoDiff returns the assumption literal disabling the disequality,
// used for final key extraction.
func (m *Miter) AssumeNoDiff() sat.Lit { return sat.MkLit(m.Act, true) }

// ExtractInputs reads the shared primary-input pattern from the last model.
func (m *Miter) ExtractInputs() []bool { return extract(m.S, m.PIVars) }

// ExtractKey1 reads key copy 1 from the last model.
func (m *Miter) ExtractKey1() []bool { return extract(m.S, m.Key1) }

func extract(s *sat.Solver, vars []sat.Var) []bool {
	out := make([]bool, len(vars))
	for i, v := range vars {
		out[i] = s.Value(v) == sat.True
	}
	return out
}

// coiInfo captures the key-dependence structure of a compiled program for
// cone-of-influence miter encoding: which nodes can depend on the key
// (cone), which nodes feed a key-reachable output at all (needed), which
// primary outputs are key-reachable (keyPOIdx), and which gates each
// cone copy encodes (gates), the key-only ones among them marked.
type coiInfo struct {
	// cone marks nodes in the transitive fanout of any key input.
	cone []bool
	// needed marks nodes in the transitive fanin of the key-reachable
	// outputs; nodes outside it are irrelevant to every miter query.
	needed []bool
	// keyPOIdx lists the indices (into Prog.POs) of the key-reachable
	// primary outputs, in declaration order.
	keyPOIdx []int
	// gates lists the needed cone nodes other than the key inputs, in
	// topological order; keyOnly marks, per entry, the gates that are
	// functions of the key alone (ir.Program.KeyOnly).
	gates   []int32
	keyOnly []bool
}

func newCOIInfo(prog *ir.Program) *coiInfo {
	keys := make([]int, len(prog.Keys))
	for i, id := range prog.Keys {
		keys[i] = int(id)
	}
	info := &coiInfo{cone: prog.TransitiveFanout(keys...)}
	var keyPOs []int
	for i, id := range prog.POs {
		if info.cone[id] {
			info.keyPOIdx = append(info.keyPOIdx, i)
			keyPOs = append(keyPOs, int(id))
		}
	}
	if len(keyPOs) == 0 {
		info.needed = make([]bool, prog.NumNodes())
	} else {
		info.needed = prog.TransitiveFanin(keyPOs...)
	}
	keyOnly := prog.KeyOnly()
	for _, id := range prog.Order {
		if info.needed[id] && info.cone[id] && prog.Ops[id] != ir.OpInput {
			info.gates = append(info.gates, id)
			info.keyOnly = append(info.keyOnly, keyOnly[id])
		}
	}
	return info
}

// NewMiter compiles the locked circuit c once and encodes the SAT-attack
// miter using cone-of-influence reduction: only gates in the transitive
// fanout of the key inputs are duplicated per key copy, the shared fan-in
// logic is encoded once and reused by both copies, and the output
// disequality ranges over the key-reachable outputs only (outputs the key
// cannot influence are equal by construction). The resulting formula is
// equisatisfiable with the full two-copy miter on every attack query but
// substantially smaller whenever the key logic touches a fraction of the
// circuit.
func NewMiter(s *sat.Solver, c *netlist.Circuit) (*Miter, error) {
	if c.NumKeys() == 0 {
		return nil, fmt.Errorf("cnf: miter over circuit %q with no key inputs", c.Name)
	}
	prog, err := ir.Compile(c)
	if err != nil {
		return nil, err
	}
	m := &Miter{
		S:         s,
		Prog:      prog,
		coi:       newCOIInfo(prog),
		constTrue: -1,
	}
	// Primary inputs keep their full width — inputs outside the needed
	// support stay unconstrained, which is sound: no encoded gate reads
	// them, so any model value is as good as any other for DIP extraction.
	m.PIVars = make([]sat.Var, prog.NumInputs())
	for i, id := range prog.PIs {
		m.PIVars[i] = s.NewVar()
		if m.coi.needed[id] {
			m.Support = append(m.Support, i)
		}
	}
	m.Key1 = make([]sat.Var, prog.NumKeys())
	m.Key2 = make([]sat.Var, prog.NumKeys())
	for i := range m.Key1 {
		m.Key1[i] = s.NewVar()
	}
	for i := range m.Key2 {
		m.Key2[i] = s.NewVar()
	}
	if err := m.encodeShared(); err != nil {
		return nil, err
	}
	if err := m.addConePair(); err != nil {
		return nil, err
	}
	return m, nil
}

// NewMiterShared encodes a second miter over base's circuit that reuses
// base's primary-input variables and shared fan-in encoding, adding only
// two more key-cone copies with fresh key variables and its own activation
// variable. This is the multi-miter formulation Double DIP uses.
func NewMiterShared(s *sat.Solver, base *Miter) (*Miter, error) {
	if s != base.S {
		return nil, fmt.Errorf("cnf: NewMiterShared must target the base miter's solver")
	}
	m := &Miter{
		S:         s,
		Prog:      base.Prog,
		PIVars:    base.PIVars,
		Support:   base.Support,
		coi:       base.coi,
		sharedVar: base.sharedVar,
		constTrue: -1,
	}
	m.Key1 = make([]sat.Var, base.Prog.NumKeys())
	m.Key2 = make([]sat.Var, base.Prog.NumKeys())
	for i := range m.Key1 {
		m.Key1[i] = s.NewVar()
	}
	for i := range m.Key2 {
		m.Key2[i] = s.NewVar()
	}
	if err := m.addConePair(); err != nil {
		return nil, err
	}
	return m, nil
}

// encodeShared emits the key-independent support logic once: every needed
// node outside the key cone gets a single variable reused by all copies.
func (m *Miter) encodeShared() error {
	prog, info := m.Prog, m.coi
	m.sharedVar = noVars(prog.NumNodes())
	for i, id := range prog.PIs {
		m.sharedVar[id] = m.PIVars[i]
	}
	var fan []sat.Lit
	for _, id32 := range prog.Order {
		id := int(id32)
		if !info.needed[id] || info.cone[id] || prog.Ops[id] == ir.OpInput {
			continue
		}
		v := m.S.NewDerivedVar()
		m.sharedVar[id] = v
		fan = fan[:0]
		for _, f := range prog.FaninSpan(id) {
			// Fanin closure puts every fanin of a needed non-cone node in
			// the shared set (the cone is fanout-closed).
			fan = append(fan, sat.MkLit(m.sharedVar[f], false))
		}
		if err := EmitGate(m.S, prog.Ops[id], sat.MkLit(v, false), fan); err != nil {
			return fmt.Errorf("cnf: shared node %d: %w", id, err)
		}
	}
	return nil
}

// encodeCone emits one copy of the needed key-cone gates, with key inputs
// bound to keyVars and each fanin outside the cone read as the literal
// shared returns for it. A key-only gate whose entry in keyOnly is set
// reads that variable and emits nothing; otherwise its new variable is
// stored there, so the first copy under a key vector defines the
// key-only gates and every later one shares them. It returns the
// variables of the key-reachable outputs, in keyPOIdx order. Every copy
// reuses the miter's copyVar without clearing it: a copy reads only the
// entries it wrote itself, the key inputs' and those of needed cone
// nodes earlier in topological order.
func (m *Miter) encodeCone(keyVars, keyOnly []sat.Var, shared func(f int32) sat.Lit) ([]sat.Var, error) {
	prog, info := m.Prog, m.coi
	if m.copyVar == nil {
		m.copyVar = make([]sat.Var, prog.NumNodes())
	}
	copyVar := m.copyVar
	for i, id := range prog.Keys {
		copyVar[id] = keyVars[i]
	}
	var fan []sat.Lit
	for i, id := range info.gates {
		if keyOnly[i] >= 0 {
			copyVar[id] = keyOnly[i]
			continue
		}
		v := m.S.NewDerivedVar()
		copyVar[id] = v
		if info.keyOnly[i] {
			keyOnly[i] = v
		}
		fan = fan[:0]
		for _, f := range prog.FaninSpan(int(id)) {
			if info.cone[f] {
				fan = append(fan, sat.MkLit(copyVar[f], false))
			} else {
				fan = append(fan, shared(f))
			}
		}
		if err := EmitGate(m.S, prog.Ops[id], sat.MkLit(v, false), fan); err != nil {
			return nil, fmt.Errorf("cnf: cone node %d: %w", id, err)
		}
	}
	outs := make([]sat.Var, len(info.keyPOIdx))
	for i, poi := range info.keyPOIdx {
		outs[i] = copyVar[prog.POs[poi]]
	}
	return outs, nil
}

// addConePair encodes the two key-cone copies of m over the shared
// support encoding, defining the key-only gates of each key vector, and
// asserts the activation-guarded disequality over the key-reachable
// outputs.
func (m *Miter) addConePair() error {
	shared := func(f int32) sat.Lit { return sat.MkLit(m.sharedVar[f], false) }
	m.keyOnly1, m.keyOnly2 = noVars(len(m.coi.gates)), noVars(len(m.coi.gates))
	o1, err := m.encodeCone(m.Key1, m.keyOnly1, shared)
	if err != nil {
		return err
	}
	o2, err := m.encodeCone(m.Key2, m.keyOnly2, shared)
	if err != nil {
		return err
	}
	m.Act = m.S.NewVar()
	diffs := make([]sat.Lit, 0, len(o1)+1)
	diffs = append(diffs, sat.MkLit(m.Act, true))
	for i := range o1 {
		d := sat.MkLit(m.S.NewDerivedVar(), false)
		EmitXor2(m.S, d, sat.MkLit(o1[i], false), sat.MkLit(o2[i], false))
		diffs = append(diffs, d)
	}
	// With no key-reachable output this collapses to a unit ¬Act: no input
	// can distinguish any two keys, so AssumeDiff is immediately
	// unsatisfiable — the same verdict the full miter reaches by search.
	m.S.AddClause(diffs...)
	return nil
}

// noVars returns n variables set to -1.
func noVars(n int) []sat.Var {
	vs := make([]sat.Var, n)
	for i := range vs {
		vs[i] = -1
	}
	return vs
}

// AddIOConstraint records an oracle observation: for input pattern x with
// oracle response y, both key copies must reproduce y on x. The
// key-independent logic is not re-encoded: one concrete evaluation of the
// program under x fixes every shared node, the two per-key cone copies
// are emitted with those constants folded in, and only the key-reachable
// outputs are constrained to the oracle response. Nor is the key-only
// logic, such as a point function's comparator against its hidden
// constant or a weighted lock's control gates: under one key vector it
// takes the same value in every copy, so each copy reads the variables
// addConePair defined for it. The formula stays equisatisfiable, each
// shared variable being defined by the same key literals in every copy.
// A response bit that contradicts the circuit on a key-independent
// output makes the formula unsatisfiable, exactly as a full two-copy
// encoding's unit clauses would.
func (m *Miter) AddIOConstraint(x, y []bool) error {
	prog, info := m.Prog, m.coi
	if len(x) != prog.NumInputs() {
		return fmt.Errorf("cnf: %d input bits for %d inputs", len(x), prog.NumInputs())
	}
	if len(y) != prog.NumOutputs() {
		return fmt.Errorf("cnf: %d output bits for %d outputs", len(y), prog.NumOutputs())
	}
	if m.evalBuf == nil {
		m.evalBuf = make([]bool, prog.NumNodes())
	}
	vals := m.evalBuf
	for i, id := range prog.PIs {
		vals[id] = x[i]
	}
	// Key values are irrelevant to nodes outside the cone; zero them so
	// the evaluation is well-defined.
	for _, id := range prog.Keys {
		vals[id] = false
	}
	prog.RunBools(vals)
	for i, id := range prog.POs {
		if !info.cone[id] && vals[id] != y[i] {
			// The observation contradicts the key-independent logic: no key
			// can explain it. Mark the formula unsatisfiable.
			m.S.AddClause()
			return nil
		}
	}
	if m.constTrue < 0 {
		m.constTrue = m.S.NewVar()
		m.S.AddClause(sat.MkLit(m.constTrue, false))
	}
	// Constant fold: the solver's level-0 clause simplification drops
	// false literals and discards satisfied clauses.
	folded := func(f int32) sat.Lit { return sat.MkLit(m.constTrue, !vals[f]) }
	for _, k := range [][2][]sat.Var{{m.Key1, m.keyOnly1}, {m.Key2, m.keyOnly2}} {
		outs, err := m.encodeCone(k[0], k[1], folded)
		if err != nil {
			return err
		}
		for i, poi := range info.keyPOIdx {
			m.S.AddClause(sat.MkLit(outs[i], !y[poi]))
		}
	}
	return nil
}
