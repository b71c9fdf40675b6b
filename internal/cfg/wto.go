package cfg

import "specabsint/internal/ir"

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

// WTOElem is one element of a WTO sequence: either a plain block or a
// nested component.
type WTOElem struct {
	// Block is the vertex when Comp is nil, and the component head when
	// Comp is non-nil (Comp.Head duplicates it for convenience).
	Block ir.BlockID
	// Comp is non-nil when this element is a hierarchical component.
	Comp *WTOComponent
}

// WTOComponent is a component of the hierarchical ordering: a head vertex
// (the widening point every back edge of the component targets) followed by
// the ordered body, which may itself contain nested components.
type WTOComponent struct {
	Head ir.BlockID
	Body []WTOElem
}

// WTO is the hierarchical weak topological ordering of a graph.
type WTO struct {
	// Sequence is the top-level ordering of all vertices reachable from
	// entry.
	Sequence []WTOElem
	// NumComponents counts the components in the ordering.
	NumComponents int
	// Head[v] reports whether v heads a component. In the WTO of a
	// program's effective CFG (EffectiveWTO) the heads are the loops an
	// execution can enter and repeat, and the only blocks an analysis
	// widens at.
	Head []bool
}

// WTOOf computes the weak topological ordering of the graph with n vertices
// rooted at entry under an arbitrary successor relation — e.g. the engine's
// effective-successor graph, where statically resolved branches keep only
// the taken edge. Vertices unreachable from entry are absent from the
// sequence.
func WTOOf(n int, entry ir.BlockID, succs func(ir.BlockID) []ir.BlockID) *WTO {
	w := &WTO{Head: make([]bool, n)}
	if n == 0 {
		return w
	}

	// Bourdoncle's recursive strategy: a Tarjan-style DFS that pops
	// strongly connected subcomponents off an explicit stack and recurses
	// on each component body with the head's in-edges hidden (dfn reset to
	// unvisited), yielding the nesting.
	const unvisited, done = 0, int(^uint(0) >> 1)
	dfn := make([]int, n)
	num := 0
	stack := make([]ir.BlockID, 0, n)

	var visit func(v ir.BlockID, partition *[]WTOElem) int
	component := func(v ir.BlockID) *WTOComponent {
		var body []WTOElem
		for _, s := range succs(v) {
			if dfn[s] == unvisited {
				visit(s, &body)
			}
		}
		reverseElems(body)
		w.NumComponents++
		w.Head[v] = true
		return &WTOComponent{Head: v, Body: body}
	}
	visit = func(v ir.BlockID, partition *[]WTOElem) int {
		stack = append(stack, v)
		num++
		dfn[v] = num
		head := num
		loop := false
		for _, s := range succs(v) {
			min := dfn[s]
			if min == unvisited {
				min = visit(s, partition)
			}
			if min <= head {
				head = min
				loop = true
			}
		}
		if head == dfn[v] {
			dfn[v] = done
			elem := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if loop {
				// Unwind the component body and re-traverse it as a
				// nested partition rooted at v.
				for elem != v {
					dfn[elem] = unvisited
					elem = stack[len(stack)-1]
					stack = stack[:len(stack)-1]
				}
				*partition = append(*partition, WTOElem{Block: v, Comp: component(v)})
			} else {
				*partition = append(*partition, WTOElem{Block: v})
			}
		}
		return head
	}

	var top []WTOElem
	visit(entry, &top)
	reverseElems(top)
	w.Sequence = top
	return w
}

// EffectiveWTO is the WTO of prog's effective CFG (ir.Block.
// EffectiveSuccs), where a resolved branch keeps only its taken edge: the
// one order an analysis of prog sweeps, widens at and bounds loops by.
func EffectiveWTO(prog *ir.Program) *WTO {
	// The DFS asks for a block's successors more than once, and a list the
	// callback returns escapes, so every list is laid out once in one slab.
	succs := make([][]ir.BlockID, len(prog.Blocks))
	slab := make([]ir.BlockID, 0, 2*len(prog.Blocks))
	for i, b := range prog.Blocks {
		start := len(slab)
		slab = append(slab, b.EffectiveSuccs()...)
		succs[i] = slab[start:]
	}
	return WTOOf(len(prog.Blocks), prog.Entry, func(b ir.BlockID) []ir.BlockID { return succs[b] })
}

func reverseElems(elems []WTOElem) {
	for i, j := 0, len(elems)-1; i < j; i, j = i+1, j-1 {
		elems[i], elems[j] = elems[j], elems[i]
	}
}
