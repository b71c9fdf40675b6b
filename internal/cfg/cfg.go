// Package cfg provides control-flow-graph utilities over IR programs:
// predecessor/successor maps, reverse postorder, dominator and
// post-dominator trees (the latter place the paper's vn_stop nodes), and
// natural-loop detection.
package cfg

import (
	"fmt"
	"sort"
	"strings"

	"specabsint/internal/ir"
)

// Graph is the CFG of a program, with precomputed orders and edges.
type Graph struct {
	Prog  *ir.Program
	Preds [][]ir.BlockID
	Succs [][]ir.BlockID
	// RPO is a reverse postorder over blocks reachable from entry.
	RPO []ir.BlockID
	// RPOIndex[b] is b's position in RPO, or -1 if unreachable.
	RPOIndex []int
	// Exit collects all blocks ending in Ret.
	Exits []ir.BlockID
}

// New builds the graph for prog.
func New(prog *ir.Program) *Graph {
	n := len(prog.Blocks)
	g := &Graph{
		Prog:     prog,
		Preds:    make([][]ir.BlockID, n),
		Succs:    make([][]ir.BlockID, n),
		RPOIndex: make([]int, n),
	}
	for _, b := range prog.Blocks {
		succs := b.Succs()
		g.Succs[b.ID] = succs
		for _, s := range succs {
			g.Preds[s] = append(g.Preds[s], b.ID)
		}
		if t := b.Terminator(); t != nil && t.Op == ir.OpRet {
			g.Exits = append(g.Exits, b.ID)
		}
	}
	// Postorder DFS from entry.
	visited := make([]bool, n)
	var post []ir.BlockID
	var dfs func(b ir.BlockID)
	dfs = func(b ir.BlockID) {
		visited[b] = true
		for _, s := range g.Succs[b] {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(prog.Entry)
	g.RPO = make([]ir.BlockID, len(post))
	for i := range post {
		g.RPO[i] = post[len(post)-1-i]
	}
	for i := range g.RPOIndex {
		g.RPOIndex[i] = -1
	}
	for i, b := range g.RPO {
		g.RPOIndex[b] = i
	}
	return g
}

// Reachable reports whether b is reachable from entry.
func (g *Graph) Reachable(b ir.BlockID) bool { return g.RPOIndex[b] >= 0 }

// DomTree holds an immediate-dominator relation.
type DomTree struct {
	// IDom[b] is the immediate dominator of b; the root maps to itself.
	// Unreachable blocks map to -1.
	IDom []ir.BlockID
}

// Dominates reports whether a dominates b (reflexive).
func (d *DomTree) Dominates(a, b ir.BlockID) bool {
	if d.IDom[b] == -1 || d.IDom[a] == -1 {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := d.IDom[b]
		if next == b {
			return false
		}
		b = next
	}
}

// Dominators computes the dominator tree using the Cooper-Harvey-Kennedy
// iterative algorithm over the reverse postorder.
func (g *Graph) Dominators() *DomTree {
	n := len(g.Prog.Blocks)
	idom := make([]ir.BlockID, n)
	for i := range idom {
		idom[i] = -1
	}
	entry := g.Prog.Entry
	idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range g.RPO {
			if b == entry {
				continue
			}
			var newIdom ir.BlockID = -1
			for _, p := range g.Preds[b] {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = g.intersect(idom, p, newIdom)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return &DomTree{IDom: idom}
}

func (g *Graph) intersect(idom []ir.BlockID, a, b ir.BlockID) ir.BlockID {
	for a != b {
		for g.RPOIndex[a] > g.RPOIndex[b] {
			a = idom[a]
		}
		for g.RPOIndex[b] > g.RPOIndex[a] {
			b = idom[b]
		}
	}
	return a
}

// PostDominators computes the post-dominator tree. Because a program may
// have several Ret blocks, a virtual exit (id == len(blocks)) is used as the
// root; blocks whose only path forward diverges (infinite loop) post-dominate
// nothing and map to the virtual exit as well.
type PostDomTree struct {
	// IPDom[b] is the immediate post-dominator of b; VirtualExit for blocks
	// directly post-dominated by program exit; -1 for unreachable blocks.
	IPDom       []ir.BlockID
	VirtualExit ir.BlockID
}

// PostDominators computes the post-dominator tree of the graph.
func (g *Graph) PostDominators() *PostDomTree {
	n := len(g.Prog.Blocks)
	virtual := ir.BlockID(n)
	// Reverse graph: successors of b are preds; exits' successor is virtual.
	rsucc := make([][]ir.BlockID, n+1)
	rpred := make([][]ir.BlockID, n+1)
	for b := 0; b < n; b++ {
		for _, s := range g.Succs[b] {
			rsucc[s] = append(rsucc[s], ir.BlockID(b))
			rpred[b] = append(rpred[b], s)
		}
	}
	for _, e := range g.Exits {
		rsucc[virtual] = append(rsucc[virtual], e)
		rpred[e] = append(rpred[e], virtual)
	}
	// Postorder on the reverse graph from virtual exit.
	visited := make([]bool, n+1)
	var post []ir.BlockID
	var dfs func(b ir.BlockID)
	dfs = func(b ir.BlockID) {
		visited[b] = true
		for _, s := range rsucc[b] {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(virtual)
	rpoIndex := make([]int, n+1)
	for i := range rpoIndex {
		rpoIndex[i] = -1
	}
	rpo := make([]ir.BlockID, len(post))
	for i := range post {
		rpo[i] = post[len(post)-1-i]
	}
	for i, b := range rpo {
		rpoIndex[b] = i
	}

	ipdom := make([]ir.BlockID, n+1)
	for i := range ipdom {
		ipdom[i] = -1
	}
	ipdom[virtual] = virtual
	intersect := func(a, b ir.BlockID) ir.BlockID {
		for a != b {
			for rpoIndex[a] > rpoIndex[b] {
				a = ipdom[a]
			}
			for rpoIndex[b] > rpoIndex[a] {
				b = ipdom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == virtual {
				continue
			}
			var newIdom ir.BlockID = -1
			for _, p := range rpred[b] {
				if ipdom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && ipdom[b] != newIdom {
				ipdom[b] = newIdom
				changed = true
			}
		}
	}
	// Blocks reachable from entry but not reaching exit (infinite loops):
	// treat their ipdom as the virtual exit so vn_stop placement still
	// terminates speculation there.
	for b := 0; b < n; b++ {
		if g.Reachable(ir.BlockID(b)) && ipdom[b] == -1 {
			ipdom[b] = virtual
		}
	}
	return &PostDomTree{IPDom: ipdom, VirtualExit: virtual}
}

// ImmediatePostDom returns the immediate post-dominator of b, which may be
// the virtual exit.
func (t *PostDomTree) ImmediatePostDom(b ir.BlockID) ir.BlockID { return t.IPDom[b] }

// Loop is a natural loop.
type Loop struct {
	Header ir.BlockID
	// Latches are the sources of back edges into Header.
	Latches []ir.BlockID
	// Body is the set of blocks in the loop (including header), sorted.
	Body []ir.BlockID
}

// Contains reports whether the loop body contains b.
func (l *Loop) Contains(b ir.BlockID) bool {
	for _, x := range l.Body {
		if x == b {
			return true
		}
	}
	return false
}

// NaturalLoops finds all natural loops (back edges t->h where h dominates
// t), merging loops that share a header. A dominator precedes every block it
// dominates in the reverse postorder, so only an edge that does not go
// forward in it can be a back edge; the others are not tested against the
// dominator tree, whose chain walk would cost a long acyclic program
// O(edges × depth).
func (g *Graph) NaturalLoops(dom *DomTree) []*Loop {
	byHeader := map[ir.BlockID]*Loop{}
	for _, b := range g.RPO {
		for _, s := range g.Succs[b] {
			if g.RPOIndex[s] <= g.RPOIndex[b] && dom.Dominates(s, b) { // back edge b -> s
				l := byHeader[s]
				if l == nil {
					l = &Loop{Header: s}
					byHeader[s] = l
				}
				l.Latches = append(l.Latches, b)
			}
		}
	}
	var loops []*Loop
	for _, l := range byHeader {
		bodySet := map[ir.BlockID]bool{l.Header: true}
		var stack []ir.BlockID
		for _, latch := range l.Latches {
			if !bodySet[latch] {
				bodySet[latch] = true
				stack = append(stack, latch)
			}
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range g.Preds[b] {
				if !bodySet[p] && g.Reachable(p) {
					bodySet[p] = true
					stack = append(stack, p)
				}
			}
		}
		for b := range bodySet {
			l.Body = append(l.Body, b)
		}
		sort.Slice(l.Body, func(i, j int) bool { return l.Body[i] < l.Body[j] })
		loops = append(loops, l)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i].Header < loops[j].Header })
	return loops
}

// DOT renders the CFG in Graphviz format.
func (g *Graph) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph cfg {\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, b := range g.Prog.Blocks {
		if !g.Reachable(b.ID) {
			continue
		}
		var lines []string
		for i := range b.Instrs {
			lines = append(lines, g.Prog.FormatInstr(&b.Instrs[i]))
		}
		label := fmt.Sprintf("%s\\n%s", b.Label, strings.Join(lines, "\\l"))
		fmt.Fprintf(&sb, "  b%d [label=\"%s\\l\"];\n", b.ID, escapeDOT(label))
	}
	for _, b := range g.Prog.Blocks {
		if !g.Reachable(b.ID) {
			continue
		}
		succs := g.Succs[b.ID]
		for i, s := range succs {
			attr := ""
			if len(succs) == 2 {
				if i == 0 {
					attr = " [label=\"T\"]"
				} else {
					attr = " [label=\"F\"]"
				}
			}
			fmt.Fprintf(&sb, "  b%d -> b%d%s;\n", b.ID, s, attr)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func escapeDOT(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}
