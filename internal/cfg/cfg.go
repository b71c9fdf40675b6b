// Package cfg provides control-flow-graph utilities over IR programs. The
// weak topological order of a program's effective CFG (EffectiveWTO), in
// flat form and with the effective successor lists it was built over, is
// the one order every analysis sweeps, widens at and bounds loops by.
// PostDominators places the paper's vn_stop nodes over the full edge set.
// Graph is the full-edge CFG, with predecessors and a reverse postorder, that
// the IR verifier and DOT output use; the analyses, the Algorithm-1 baseline
// included, build none.
package cfg

import (
	"fmt"
	"slices"
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

// PostDomTree is the post-dominator tree. Because a program may
// have several Ret blocks, a virtual exit (id == len(blocks)) is used as the
// root; blocks whose only path forward diverges (infinite loop) post-dominate
// nothing and map to the virtual exit as well.
type PostDomTree struct {
	// IPDom[b] is the immediate post-dominator of b: VirtualExit for a
	// block directly post-dominated by program exit, or from which no exit
	// is reachable.
	IPDom       []ir.BlockID
	VirtualExit ir.BlockID
}

// PostDominators computes the post-dominator tree of prog over its full edge
// set (ir.Block.Succs), so that resolving a branch never moves a vn_stop.
func PostDominators(prog *ir.Program) *PostDomTree {
	n := len(prog.Blocks)
	virtual := ir.BlockID(n)
	isExit := func(b *ir.Block) bool {
		t := b.Terminator()
		return t != nil && t.Op == ir.OpRet
	}
	// The reverse graph in one slab: pred[off[v]:off[v+1]] lists v's
	// predecessors, and the virtual exit's list every Ret block, in block
	// order.
	off := make([]int, n+2)
	for _, b := range prog.Blocks {
		for _, s := range b.Succs() {
			off[s]++
		}
		if isExit(b) {
			off[virtual]++
		}
	}
	for v := 1; v < len(off); v++ {
		off[v] += off[v-1]
	}
	pred := make([]ir.BlockID, off[n+1])
	for i := n - 1; i >= 0; i-- {
		b := prog.Blocks[i]
		if isExit(b) {
			off[virtual]--
			pred[off[virtual]] = b.ID
		}
		succs := b.Succs()
		for j := len(succs) - 1; j >= 0; j-- {
			off[succs[j]]--
			pred[off[succs[j]]] = b.ID
		}
	}
	// Reverse postorder on the reverse graph from the virtual exit, which
	// comes first.
	visited := make([]bool, n+1)
	rpo := make([]ir.BlockID, 0, n+1)
	var dfs func(v ir.BlockID)
	dfs = func(v ir.BlockID) {
		visited[v] = true
		for _, p := range pred[off[v]:off[v+1]] {
			if !visited[p] {
				dfs(p)
			}
		}
		rpo = append(rpo, v)
	}
	dfs(virtual)
	slices.Reverse(rpo)
	rpoIndex := make([]int, n+1)
	for i := range rpoIndex {
		rpoIndex[i] = -1
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
	// meet folds a successor p of the block into its candidate ipdom.
	meet := func(idom, p ir.BlockID) ir.BlockID {
		switch {
		case ipdom[p] == -1:
			return idom
		case idom == -1:
			return p
		}
		return intersect(p, idom)
	}
	for changed := true; changed; {
		changed = false
		for _, v := range rpo[1:] {
			b := prog.Blocks[v]
			newIdom := ir.BlockID(-1)
			for _, s := range b.Succs() {
				newIdom = meet(newIdom, s)
			}
			if isExit(b) {
				newIdom = meet(newIdom, virtual)
			}
			if newIdom != -1 && ipdom[v] != newIdom {
				ipdom[v] = newIdom
				changed = true
			}
		}
	}
	// Blocks not reaching exit (infinite loops): treat their ipdom as the
	// virtual exit so vn_stop placement still terminates speculation there.
	for b := range n {
		if ipdom[b] == -1 {
			ipdom[b] = virtual
		}
	}
	return &PostDomTree{IPDom: ipdom, VirtualExit: virtual}
}

// ImmediatePostDom returns the immediate post-dominator of b, which may be
// the virtual exit.
func (t *PostDomTree) ImmediatePostDom(b ir.BlockID) ir.BlockID { return t.IPDom[b] }

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
