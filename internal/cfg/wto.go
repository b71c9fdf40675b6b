package cfg

import (
	"slices"

	"specabsint/internal/ir"
)

// This file implements Bourdoncle's hierarchical weak topological ordering
// (WTO) — "Efficient chaotic iteration strategies with widenings", FMPA'93 —
// used by the fixpoint engine to stabilize inner loop components before
// re-entering outer ones, and by every analysis to pick its widening points.
//
// A WTO of a directed graph is a well-parenthesized total order of its
// vertices such that every back edge (u, v) has v ≤ u with v the head of a
// component containing u. Iterating components to local stability, innermost
// first, is the classic convergence-optimal schedule for abstract
// interpretation with widening at component heads.

// WTO is the weak topological ordering of a graph in flat form: the
// parenthesized order written out, each component head before its body, with
// every element's extent. A component at position p spans positions
// [p, End[p]): its head at p and its body, itself a sequence of elements,
// at [p+1, End[p]).
type WTO struct {
	// Order lists every vertex reachable from entry once, each component
	// head before its body.
	Order []ir.BlockID
	// Pos[v] is v's position in Order, or -1 when v is unreachable.
	Pos []int
	// End[p] is one past the last position of the element at position p:
	// p+1 for a plain vertex, the end of the body for a component head.
	End []int
	// Head[v] reports whether v heads a component. A self-loop is a
	// component with an empty body. In the WTO of a program's effective CFG
	// (EffectiveWTO) the heads are the loops an execution can enter and
	// repeat, and the only blocks an analysis widens at.
	Head []bool
	// NumComponents counts the components in the ordering.
	NumComponents int
	// Succs[v] is the successor list the ordering was built over: for
	// EffectiveWTO, v's effective successors.
	Succs [][]ir.BlockID
}

// WTOOf computes the weak topological ordering of the graph whose vertex v
// has successors succs[v], rooted at entry; the WTO keeps succs. Vertices
// unreachable from entry are off the order.
func WTOOf(succs [][]ir.BlockID, entry ir.BlockID) *WTO {
	n := len(succs)
	w := &WTO{Pos: make([]int, n), Head: make([]bool, n), Succs: succs}
	for v := range w.Pos {
		w.Pos[v] = -1
	}
	if n == 0 {
		return w
	}

	// Bourdoncle's recursive strategy: a Tarjan-style DFS that pops
	// strongly connected subcomponents off an explicit stack and recurses
	// on each component body with the head's in-edges hidden (dfn reset to
	// unvisited), yielding the nesting. It places every vertex once its
	// element is complete: a plain vertex when its trivial component pops, a
	// head after the whole of its body. The order is that placement order
	// reversed, and start[i] records where the i-th placed element's extent
	// begins in placement order (i itself for a plain vertex).
	const unvisited, done = 0, int(^uint(0) >> 1)
	dfn := make([]int, n)
	num := 0
	stack := make([]ir.BlockID, 0, n)
	w.Order = make([]ir.BlockID, 0, n)
	start := make([]int, 0, n)

	var visit func(v ir.BlockID) int
	visit = func(v ir.BlockID) int {
		stack = append(stack, v)
		num++
		dfn[v] = num
		head := num
		loop := false
		for _, s := range succs[v] {
			min := dfn[s]
			if min == unvisited {
				min = visit(s)
			}
			if min <= head {
				head = min
				loop = true
			}
		}
		if head != dfn[v] {
			return head
		}
		dfn[v] = done
		elem := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		first := len(w.Order)
		if loop {
			// Unwind the component body and re-traverse it as a nested
			// sequence rooted at v.
			for elem != v {
				dfn[elem] = unvisited
				elem = stack[len(stack)-1]
				stack = stack[:len(stack)-1]
			}
			for _, s := range succs[v] {
				if dfn[s] == unvisited {
					visit(s)
				}
			}
			w.NumComponents++
			w.Head[v] = true
		}
		w.Order = append(w.Order, v)
		start = append(start, first)
		return head
	}
	visit(entry)

	m := len(w.Order)
	slices.Reverse(w.Order)
	w.End = make([]int, m)
	for i, first := range start {
		w.End[m-1-i] = m - first
	}
	for p, v := range w.Order {
		w.Pos[v] = p
	}
	return w
}

// EffectiveWTO is the WTO of prog's effective CFG (ir.Block.
// EffectiveSuccs), where a resolved branch keeps only its taken edge: the
// one order an analysis of prog sweeps, widens at and bounds loops by. Its
// Succs lists every block's effective successors, laid out in one slab.
func EffectiveWTO(prog *ir.Program) *WTO {
	succs := make([][]ir.BlockID, len(prog.Blocks))
	slab := make([]ir.BlockID, 0, 2*len(prog.Blocks))
	for i, b := range prog.Blocks {
		start := len(slab)
		slab = append(slab, b.EffectiveSuccs()...)
		succs[i] = slab[start:len(slab):len(slab)]
	}
	return WTOOf(succs, prog.Entry)
}
