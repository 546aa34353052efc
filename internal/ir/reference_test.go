package ir_test

import "orap/internal/netlist"

// Reference graph walkers over the netlist's gate table, written
// independently of Compile's CSR arrays so the tests can cross-check
// them. They assume a well-formed circuit.

// refFanoutLists returns, for every node, the nodes it drives in sink-ID
// order, one entry per fanin edge.
func refFanoutLists(c *netlist.Circuit) [][]int {
	fanout := make([][]int, c.NumNodes())
	for id, g := range c.Gates {
		for _, f := range g.Fanin {
			fanout[f] = append(fanout[f], id)
		}
	}
	return fanout
}

// refTopoOrder is Kahn's algorithm with a FIFO queue seeded with the
// zero-fanin nodes in ID order.
func refTopoOrder(c *netlist.Circuit) []int {
	fanout := refFanoutLists(c)
	indeg := make([]int, c.NumNodes())
	var queue []int
	for id, g := range c.Gates {
		indeg[id] = len(g.Fanin)
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	var order []int
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, f := range fanout[id] {
			if indeg[f]--; indeg[f] == 0 {
				queue = append(queue, f)
			}
		}
	}
	return order
}

// refLevels gives inputs and constants level 0 and every gate 1 + the
// maximum level of its fanins, walking a topological order.
func refLevels(c *netlist.Circuit, order []int) []int {
	lv := make([]int, c.NumNodes())
	for _, id := range order {
		for _, f := range c.Gates[id].Fanin {
			lv[id] = max(lv[id], lv[f]+1)
		}
	}
	return lv
}

// refCone marks every node reachable from root along next, root
// included.
func refCone(c *netlist.Circuit, root int, next func(int) []int) []bool {
	in := make([]bool, c.NumNodes())
	stack := []int{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !in[id] {
			in[id] = true
			stack = append(stack, next(id)...)
		}
	}
	return in
}
