package bdd

import (
	"errors"
	"math/big"
	"math/bits"
	"testing"
)

// FuzzITE decodes the fuzz input into a random expression DAG over at
// most 6 variables on one Manager, and checks the canonicity contract
// against a concrete truth table carried alongside every stack entry:
// equal truth tables ⇔ identical node IDs, and SatCount must equal the
// table's popcount. Diff and Exists run through the same tables, so
// their slice memos and the nodes they make are checked too, and so do
// Mark, Rollback and Reset: after a Rollback the entries made before
// the mark must still be canonical against everything built since,
// which a stale cache entry or a broken probe chain would break. The
// same convention as internal/sat's FuzzSolver: a checked-in seed
// corpus replays under plain `go test`, including the -race leg.
func FuzzITE(f *testing.F) {
	f.Add([]byte{3, 0x00, 0x01, 0x82, 0x02, 0xc1})
	f.Add([]byte{6, 0x00, 0x01, 0x83, 0x02, 0x03, 0x84, 0x04, 0x05, 0x85, 0xc2})
	f.Add([]byte{2, 0x00, 0x00, 0x82, 0x01, 0xc0, 0x83})
	f.Add([]byte{1, 0x00, 0xc0, 0xc0, 0xc0})
	f.Add([]byte{4, 0x00, 0x01, 0x80, 0xe1, 0x02, 0x81, 0xf0, 0xe3, 0x03, 0x82, 0xf2})
	f.Add([]byte{3, 0x00, 0x01, 0x81, 0x00, 0x01, 0x81, 0x40, 0x02, 0x80, 0xe1, 0x5f, 0x02, 0x80, 0x00, 0x82})
	f.Add([]byte{2, 0x00, 0x01, 0x82, 0x40, 0x00, 0x83, 0x40, 0x01, 0x84, 0x50, 0x50,
		0x65, 0x70, 0x71, 0x72, 0x73, 0x74, 0x75, 0x80, 0x81, 0x82, 0x40, 0xf3, 0xc0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 || len(prog) > 512 {
			return
		}
		nv := 1 + int(prog[0]%6)
		m := New(nv, 1<<12)
		var mask uint64
		var varTab []uint64
		setVars := func(n int) {
			nv = n
			mask = uint64(1)<<(1<<uint(nv)) - 1
			if nv == 6 {
				mask = ^uint64(0)
			}
			// varTab[v] is the truth table of variable v over nv variables
			// (minterm index bit v selects the variable's value).
			varTab = make([]uint64, nv)
			for v := 0; v < nv; v++ {
				for minterm := 0; minterm < 1<<uint(nv); minterm++ {
					if minterm>>uint(v)&1 == 1 {
						varTab[v] |= 1 << uint(minterm)
					}
				}
			}
		}
		setVars(nv)

		// made numbers the pushes, so a Rollback can drop every entry
		// pushed after its mark.
		type entry struct {
			n    Node
			tab  uint64
			made int
		}
		type mark struct {
			cp   Checkpoint
			made int
		}
		var stack []entry
		var marks []mark
		pushes := 0
		push := func(n Node, tab uint64) {
			stack = append(stack, entry{n, tab, pushes})
			pushes++
		}
		pop := func() entry {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			return e
		}
		// Each byte is one stack-machine instruction: low 6 bits select
		// the operand, the top two bits the opcode family — push var,
		// control, binary op (and/or/xor by operand%3), or unary. In the
		// control family bits 5-4 pick mark, rollback to the newest mark,
		// reset to 1+(low 4 bits)%6 variables, or push variable (low 4
		// bits)%nv. In the unary family bit 5 clear is not; set, bit 4
		// picks the Boolean difference or exists by variable (low 4
		// bits)%nv.
		for _, b := range prog[1:] {
			var err error
			switch b >> 6 {
			case 0: // push variable
				v := int(b&0x3f) % nv
				var n Node
				n, err = m.variable(v)
				push(n, varTab[v])
			case 1: // control
				switch b >> 4 & 3 {
				case 0:
					marks = append(marks, mark{m.Mark(), pushes})
				case 1:
					if len(marks) == 0 {
						continue
					}
					mk := marks[len(marks)-1]
					marks = marks[:len(marks)-1]
					m.Rollback(mk.cp)
					kept := stack[:0]
					for _, e := range stack {
						if e.made < mk.made {
							kept = append(kept, e)
						}
					}
					stack = kept
				case 2:
					setVars(1 + int(b&0x0f)%6)
					m.Reset(nv)
					stack, marks = nil, nil
				default:
					v := int(b&0x0f) % nv
					var n Node
					n, err = m.variable(v)
					push(n, varTab[v])
				}
			case 2: // binary
				if len(stack) < 2 {
					continue
				}
				x, y := pop(), pop()
				var n Node
				var tab uint64
				switch b % 3 {
				case 0:
					n, err = m.and(x.n, y.n)
					tab = x.tab & y.tab
				case 1:
					n, err = m.Or(x.n, y.n)
					tab = x.tab | y.tab
				default:
					n, err = m.Xor(x.n, y.n)
					tab = x.tab ^ y.tab
				}
				push(n, tab&mask)
			case 3: // unary
				if len(stack) < 1 {
					continue
				}
				x := pop()
				v := int(b&0x0f) % nv
				var n Node
				var tab uint64
				switch {
				case b&0x20 == 0:
					n, err = m.not(x.n)
					tab = ^x.tab
				case b&0x10 == 0:
					n, err = m.Diff(x.n, v)
					for minterm := 0; minterm < 1<<uint(nv); minterm++ {
						tab |= (x.tab>>uint(minterm) ^ x.tab>>uint(minterm^1<<v)) & 1 << uint(minterm)
					}
				default:
					quant := make([]bool, nv)
					quant[v] = true
					n, err = m.Exists(x.n, quant)
					for minterm := 0; minterm < 1<<uint(nv); minterm++ {
						tab |= (x.tab>>uint(minterm&^(1<<v)) | x.tab>>uint(minterm|1<<v)) & 1 << uint(minterm)
					}
				}
				push(n, tab&mask)
			}
			if err != nil {
				if errors.Is(err, ErrBudget) {
					return // budget trip is a legal outcome, not a bug
				}
				t.Fatal(err)
			}
		}

		assign := make([]bool, nv)
		for i, e := range stack {
			// Semantics: the BDD agrees with the truth table everywhere.
			for minterm := 0; minterm < 1<<uint(nv); minterm++ {
				for v := 0; v < nv; v++ {
					assign[v] = minterm>>uint(v)&1 == 1
				}
				if m.eval(e.n, assign) != (e.tab>>uint(minterm)&1 == 1) {
					t.Fatalf("entry %d: BDD disagrees with table at minterm %d", i, minterm)
				}
			}
			// Exact model count.
			if got := m.SatCount(e.n); got.Cmp(big.NewInt(int64(bits.OnesCount64(e.tab)))) != 0 {
				t.Fatalf("entry %d: SatCount %v, table popcount %d", i, got, bits.OnesCount64(e.tab))
			}
			// Canonicity: equal functions are the same node, different
			// functions are different nodes.
			for j := i + 1; j < len(stack); j++ {
				if (e.tab == stack[j].tab) != (e.n == stack[j].n) {
					t.Fatalf("canonicity violated: entries %d and %d have tabs %x/%x but nodes %d/%d",
						i, j, e.tab, stack[j].tab, e.n, stack[j].n)
				}
			}
		}
	})
}
