package netlist

import (
	"fmt"
	"strings"
)

// TopoOrder returns the node IDs in a topological order (every node appears
// after all of its fanins). The order is recomputed on every call — hot
// paths should compile the circuit once with ir.Compile and use the
// program's Order instead. An error is returned if the graph contains a
// combinational cycle.
func (c *Circuit) TopoOrder() ([]int, error) {
	n := len(c.Gates)
	indeg := make([]int, n)
	fanout := c.FanoutLists()
	for id := range c.Gates {
		indeg[id] = len(c.Gates[id].Fanin)
	}
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, f := range fanout[id] {
			indeg[f]--
			if indeg[f] == 0 {
				queue = append(queue, f)
			}
		}
	}
	if len(order) != n {
		cyc := c.FindCycle()
		return nil, fmt.Errorf("netlist: circuit %q contains a combinational cycle through %s (%d of %d nodes ordered)",
			c.Name, c.cyclePath(cyc), len(order), n)
	}
	return order, nil
}

// FindCycle returns the node IDs of one combinational cycle, in driver
// order (each node drives the next, and the last drives the first), or
// nil when the circuit is acyclic. Only one cycle is reported even when
// several exist.
func (c *Circuit) FindCycle() []int {
	const (
		unseen = 0
		active = 1
		done   = 2
	)
	state := make([]uint8, len(c.Gates))
	// Iterative DFS over fanin edges; an edge into an "active" node closes
	// a cycle. pathPos tracks each active node's index on the DFS path so
	// the cycle can be sliced out.
	path := make([]int, 0, 16)
	pathPos := make([]int, len(c.Gates))
	type frame struct{ id, next int }
	for root := range c.Gates {
		if state[root] != unseen {
			continue
		}
		stack := []frame{{root, 0}}
		state[root] = active
		pathPos[root] = len(path)
		path = append(path, root)
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			fan := c.Gates[fr.id].Fanin
			if fr.next < len(fan) {
				f := fan[fr.next]
				fr.next++
				if f < 0 || f >= len(c.Gates) {
					continue
				}
				switch state[f] {
				case active:
					// path[pathPos[f]:] is the cycle, discovered along
					// fanin edges; reverse it so it reads driver→sink.
					cyc := append([]int(nil), path[pathPos[f]:]...)
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return cyc
				case unseen:
					state[f] = active
					pathPos[f] = len(path)
					path = append(path, f)
					stack = append(stack, frame{f, 0})
				}
				continue
			}
			state[fr.id] = done
			path = path[:len(path)-1]
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// cyclePath renders a cycle as "a -> b -> c -> a" using node names.
func (c *Circuit) cyclePath(cyc []int) string {
	if len(cyc) == 0 {
		return "(unknown)"
	}
	var b strings.Builder
	for _, id := range cyc {
		b.WriteString(c.NameOf(id))
		b.WriteString(" -> ")
	}
	b.WriteString(c.NameOf(cyc[0]))
	return b.String()
}

// FanoutLists returns, for every node, the IDs of the nodes it drives.
// Duplicate fanin edges yield duplicate fanout entries, mirroring the
// physical connection count.
func (c *Circuit) FanoutLists() [][]int {
	counts := make([]int, len(c.Gates))
	for _, g := range c.Gates {
		for _, f := range g.Fanin {
			counts[f]++
		}
	}
	fanout := make([][]int, len(c.Gates))
	for id, n := range counts {
		if n > 0 {
			fanout[id] = make([]int, 0, n)
		}
	}
	for id, g := range c.Gates {
		for _, f := range g.Fanin {
			fanout[f] = append(fanout[f], id)
		}
	}
	return fanout
}

// Levels returns the logic level of every node: inputs and constants are
// level 0, every gate is 1 + max(level of fanins). Buffers and inverters
// count as levels here; LevelsExcludingInverters provides the paper's
// delay metric. Like TopoOrder, the result is recomputed on every call;
// hot paths should use a compiled ir.Program's Level array.
func (c *Circuit) Levels() ([]int, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	lv := make([]int, len(c.Gates))
	for _, id := range order {
		g := &c.Gates[id]
		if len(g.Fanin) == 0 {
			lv[id] = 0
			continue
		}
		maxIn := 0
		for _, f := range g.Fanin {
			if lv[f] > maxIn {
				maxIn = lv[f]
			}
		}
		lv[id] = maxIn + 1
	}
	return lv, nil
}

// Depth returns the maximum logic level across primary outputs.
func (c *Circuit) Depth() (int, error) {
	lv, err := c.Levels()
	if err != nil {
		return 0, err
	}
	d := 0
	for _, o := range c.POs {
		if lv[o] > d {
			d = lv[o]
		}
	}
	return d, nil
}

// TransitiveFanin returns a boolean membership slice marking every node in
// the transitive fanin cone of the given roots (the roots included).
func (c *Circuit) TransitiveFanin(roots ...int) []bool {
	in := make([]bool, len(c.Gates))
	stack := append([]int(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id < 0 || id >= len(c.Gates) || in[id] {
			continue
		}
		in[id] = true
		stack = append(stack, c.Gates[id].Fanin...)
	}
	return in
}

// TransitiveFanout returns a boolean membership slice marking every node in
// the transitive fanout cone of the given roots (the roots included).
func (c *Circuit) TransitiveFanout(roots ...int) []bool {
	fanout := c.FanoutLists()
	out := make([]bool, len(c.Gates))
	stack := append([]int(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id < 0 || id >= len(c.Gates) || out[id] {
			continue
		}
		out[id] = true
		stack = append(stack, fanout[id]...)
	}
	return out
}
