package cnf

import (
	"encoding/binary"
	"fmt"
	"slices"

	"orap/internal/ir"
	"orap/internal/netlist"
	"orap/internal/sat"
)

// Miter is the SAT-attack formulation: two copies of a locked circuit that
// share primary inputs but have independent keys K1 and K2, with a
// constraint that at least one output differs. Only the key inputs' cone
// of influence is duplicated per copy (see NewMiter), and every copy,
// the miter's own and each observation's, goes through one encoder
// (encodeCone) that folds constants, aliases single-fanin gates and
// hashes the rest against the gates earlier copies defined.
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
	// keyOnly1 and keyOnly2 are the literals addConePair gave the
	// key-only gates of the cone under Key1 and Key2, indexed like
	// coi.gates, noLit for the other gates. Every IO copy under that key
	// vector reads them instead of encoding those gates again.
	keyOnly1, keyOnly2 []sat.Lit
	// constTrue is the literal every copy folds constants against. Its
	// variable is fixed true by a unit clause; NewMiterShared shares it.
	constTrue sat.Lit
	evalBuf   []uint64  // per-node evaluation buffer for query folding
	lits      []sat.Lit // per node: encodeCone's literals, reused by every copy
	fan, outs []sat.Lit // encodeCone's fanins and AddIOConstraint's outputs
	// strash maps a hashed gate's kind and sorted live literals to the
	// literal of the variable whose clauses define it; hashed builds
	// each key in the reused buffer key.
	strash map[string]sat.Lit
	key    []byte
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
		S:    s,
		Prog: prog,
		coi:  newCOIInfo(prog),
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
	m.Key1, m.Key2 = newVars(s, prog.NumKeys()), newVars(s, prog.NumKeys())
	m.constTrue = sat.MkLit(s.NewVar(), false)
	s.AddClause(m.constTrue)
	if err := m.encodeShared(); err != nil {
		return nil, err
	}
	if err := m.addConePair(); err != nil {
		return nil, err
	}
	return m, nil
}

// NewMiterShared encodes a second miter over base's circuit that reuses
// base's primary-input variables, shared fan-in encoding and constant,
// adding only two more key-cone copies with fresh key variables and its
// own activation variable. This is the multi-miter formulation Double DIP
// uses.
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
		constTrue: base.constTrue,
	}
	m.Key1, m.Key2 = newVars(s, base.Prog.NumKeys()), newVars(s, base.Prog.NumKeys())
	if err := m.addConePair(); err != nil {
		return nil, err
	}
	return m, nil
}

// newVars allocates n ordinary variables.
func newVars(s *sat.Solver, n int) []sat.Var {
	vs := make([]sat.Var, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	return vs
}

// encodeShared emits the key-independent support logic once: every needed
// node outside the key cone gets a single variable reused by all copies.
func (m *Miter) encodeShared() error {
	prog, info := m.Prog, m.coi
	m.sharedVar = filled(prog.NumNodes(), sat.Var(-1))
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

// noLit marks a key-only gate that no copy under its key vector has
// encoded yet.
const noLit sat.Lit = -1

// encodeCone encodes one copy of the needed key-cone gates and appends
// the literals of the key-reachable outputs, in keyPOIdx order, to dst.
// Key inputs read keyVars. A fanin outside the cone reads its shared
// variable when vals is nil (the miter's own copies) and otherwise the
// constant T or ¬T that vals, one evaluation of the program under an
// observation's inputs, gives it. A key-only gate whose entry in keyOnly
// is set reads that literal and emits nothing; otherwise its literal is
// stored there, so the first copy under a key vector defines the
// key-only gates and every later one shares them.
//
// Every other gate folds (see fold): a gate whose live fanins fix it
// takes the constant, one left with a single live fanin takes that
// literal, and only a gate with two or more gets a variable, which the
// miter's structural hash shares with every identical gate of an
// earlier copy. Every copy reuses the miter's lits buffer without
// clearing it: a copy reads only the entries it wrote itself, the key
// inputs' and those of needed cone nodes earlier in topological order.
func (m *Miter) encodeCone(dst []sat.Lit, keyVars []sat.Var, keyOnly []sat.Lit, vals []uint64) ([]sat.Lit, error) {
	prog, info := m.Prog, m.coi
	if m.lits == nil {
		m.lits = make([]sat.Lit, prog.NumNodes())
		m.strash = make(map[string]sat.Lit)
	}
	lits := m.lits
	for i, id := range prog.Keys {
		lits[id] = sat.MkLit(keyVars[i], false)
	}
	for i, id := range info.gates {
		if keyOnly[i] != noLit {
			lits[id] = keyOnly[i]
			continue
		}
		fan := m.fan[:0]
		for _, f := range prog.FaninSpan(int(id)) {
			switch {
			case info.cone[f]:
				fan = append(fan, lits[f])
			case vals == nil:
				fan = append(fan, sat.MkLit(m.sharedVar[f], false))
			default:
				fan = append(fan, notIf(m.constTrue, vals[f] == 0))
			}
		}
		m.fan = fan
		l, err := m.fold(prog.Ops[id], fan)
		if err != nil {
			return nil, fmt.Errorf("cnf: cone node %d: %w", id, err)
		}
		lits[id] = l
		if info.keyOnly[i] {
			keyOnly[i] = l
		}
	}
	for _, poi := range info.keyPOIdx {
		dst = append(dst, lits[prog.POs[poi]])
	}
	return dst, nil
}

// fold returns the literal of op over the fanin literals fan, which it
// may reorder and overwrite. BUF is its fanin and NOT its complement. OR
// and NOR are NAND and AND over complemented fanins. AND and NAND drop T
// fanins and repeats, and a ¬T fanin or a literal beside its complement
// makes them constant. XOR and XNOR fold constants and negated fanins
// into the output polarity and cancel equal pairs. A gate left with no
// live fanin is the constant, one left with a single live fanin is that
// literal under the gate's polarity, and any other is hashed.
func (m *Miter) fold(op ir.Op, fan []sat.Lit) (sat.Lit, error) {
	var xor, inv, neg bool
	switch op {
	case ir.OpBuf:
		return fan[0], nil
	case ir.OpNot:
		return fan[0].Not(), nil
	case ir.OpAnd, ir.OpNand:
		neg = op == ir.OpNand
	case ir.OpOr, ir.OpNor:
		inv, neg = true, op == ir.OpOr
	case ir.OpXor, ir.OpXnor:
		xor, neg = true, op == ir.OpXnor
	default:
		return 0, fmt.Errorf("unsupported gate type %v", op)
	}
	t := m.constTrue
	live := fan[:0]
	for _, l := range fan {
		switch l = notIf(l, inv); {
		case l == t:
			neg = neg != xor // T flips an XOR; an AND drops it
			continue
		case l == t.Not():
			if !xor {
				return notIf(t.Not(), neg), nil
			}
			continue
		case xor && l.Not() < l:
			// Of a literal and its complement, the smaller stands for
			// both in an XOR; reading the larger flips the output.
			l, neg = l.Not(), !neg
		}
		live = append(live, l)
	}
	slices.Sort(live)
	n := 0
	for _, l := range live {
		switch {
		case n == 0 || live[n-1] != l && live[n-1] != l.Not():
			live[n] = l
			n++
		case live[n-1] == l.Not():
			// Only an AND's fanins can hold a complement pair, and a
			// literal and its complement sort side by side.
			return notIf(t.Not(), neg), nil
		case xor:
			n-- // x ⊕ x = 0; an AND keeps one of x ∧ x
		}
	}
	switch live = live[:n]; len(live) {
	case 0:
		return notIf(notIf(t, xor), neg), nil // AND() = 1, XOR() = 0
	case 1:
		return notIf(live[0], neg), nil
	}
	return notIf(m.hashed(xor, live), neg), nil
}

// hashed returns the literal of the AND, or with xor the XOR, of the
// sorted live literals: the one an earlier copy defined for the same
// gate, or a new derived variable whose andGate or xorChain clauses are
// emitted here. The key is a kind byte followed by the literals as
// little-endian uint32s. An entry stays sound for the miter's life
// because its defining clauses are problem clauses of a solver the
// attacks never roll back: sat.Solver's Mark and Rollback serve only
// ATPG, which builds no miter.
func (m *Miter) hashed(xor bool, live []sat.Lit) sat.Lit {
	key := append(m.key[:0], 'a')
	if xor {
		key[0] = 'x'
	}
	for _, l := range live {
		key = binary.LittleEndian.AppendUint32(key, uint32(l))
	}
	m.key = key
	if g, ok := m.strash[string(key)]; ok {
		return g
	}
	g := sat.MkLit(m.S.NewDerivedVar(), false)
	if xor {
		xorChain(m.S, g, live)
	} else {
		andGate(m.S, g, live)
	}
	m.strash[string(key)] = g
	return g
}

// notIf returns l complemented when neg holds.
func notIf(l sat.Lit, neg bool) sat.Lit {
	if neg {
		return l.Not()
	}
	return l
}

// addConePair encodes the two key-cone copies of m over the shared
// support encoding, defining the key-only gates of each key vector, and
// asserts the activation-guarded disequality over the key-reachable
// outputs.
func (m *Miter) addConePair() error {
	m.keyOnly1, m.keyOnly2 = filled(len(m.coi.gates), noLit), filled(len(m.coi.gates), noLit)
	o1, err := m.encodeCone(nil, m.Key1, m.keyOnly1, nil)
	if err != nil {
		return err
	}
	o2, err := m.encodeCone(nil, m.Key2, m.keyOnly2, nil)
	if err != nil {
		return err
	}
	m.Act = m.S.NewVar()
	diffs := make([]sat.Lit, 0, len(o1)+1)
	diffs = append(diffs, sat.MkLit(m.Act, true))
	for i := range o1 {
		d := sat.MkLit(m.S.NewDerivedVar(), false)
		EmitXor2(m.S, d, o1[i], o2[i])
		diffs = append(diffs, d)
	}
	// With no key-reachable output this collapses to a unit ¬Act: no input
	// can distinguish any two keys, so AssumeDiff is immediately
	// unsatisfiable — the same verdict the full miter reaches by search.
	m.S.AddClause(diffs...)
	return nil
}

// filled returns n copies of v.
func filled[T any](n int, v T) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// AddIOConstraint records an oracle observation: for input pattern x with
// oracle response y, both key copies must reproduce y on x, on the
// key-reachable outputs. The key-independent logic is not re-encoded: one
// concrete evaluation of the program under x fixes every shared node, and
// the two cone copies read those nodes as constants. encodeCone then folds
// every gate the constants decide and aliases every gate left with one
// live fanin, so a point function's comparator bit XNOR(k_i, x_i) becomes
// ±k_i; it hashes the rest against the gates of earlier copies, so an
// observation recorded twice allocates no variable the second time. Nor
// is the key-only logic, such as a point function's comparator against
// its hidden constant or a weighted lock's control gates, encoded again:
// each copy reads the literals addConePair defined for its key vector.
// The formula stays equisatisfiable with full Tseitin copies, each shared
// literal being defined by the same key literals in every copy. A
// response bit that contradicts the circuit on a key-independent output,
// or on a key-reachable output that folds to a constant, makes the
// formula unsatisfiable, exactly as a full two-copy encoding's unit
// clauses would.
func (m *Miter) AddIOConstraint(x, y []bool) error {
	prog, info := m.Prog, m.coi
	if len(x) != prog.NumInputs() {
		return fmt.Errorf("cnf: %d input bits for %d inputs", len(x), prog.NumInputs())
	}
	if len(y) != prog.NumOutputs() {
		return fmt.Errorf("cnf: %d output bits for %d outputs", len(y), prog.NumOutputs())
	}
	if m.evalBuf == nil {
		m.evalBuf = make([]uint64, prog.NumNodes())
	}
	// One word per node, all ones or zero. Key values are irrelevant to
	// nodes outside the cone; clearing the buffer zeroes them so the
	// evaluation is well-defined.
	vals := m.evalBuf
	clear(vals)
	for i, id := range prog.PIs {
		if x[i] {
			vals[id] = ^uint64(0)
		}
	}
	prog.RunWords(vals, 1, prog.Order)
	for i, id := range prog.POs {
		if !info.cone[id] && (vals[id] != 0) != y[i] {
			// The observation contradicts the key-independent logic: no key
			// can explain it. Mark the formula unsatisfiable.
			m.S.AddClause()
			return nil
		}
	}
	for _, k := range [2]struct {
		keys    []sat.Var
		keyOnly []sat.Lit
	}{{m.Key1, m.keyOnly1}, {m.Key2, m.keyOnly2}} {
		outs, err := m.encodeCone(m.outs[:0], k.keys, k.keyOnly, vals)
		if err != nil {
			return err
		}
		m.outs = outs
		for i, poi := range info.keyPOIdx {
			// An output folded to the constant the response contradicts
			// adds the empty clause.
			m.S.AddClause(notIf(outs[i], !y[poi]))
		}
	}
	return nil
}
