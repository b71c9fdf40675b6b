package cfg_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/cfg"
	"specabsint/internal/gen"
	"specabsint/internal/ir"
	"specabsint/internal/lower"
	"specabsint/internal/passes"
	"specabsint/internal/source"
)

// refNaturalLoops is NaturalLoops without the reverse-postorder pre-filter:
// every edge is tested against the dominator tree.
func refNaturalLoops(g *cfg.Graph, dom *cfg.DomTree) []*cfg.Loop {
	byHeader := map[ir.BlockID]*cfg.Loop{}
	for _, b := range g.RPO {
		for _, s := range g.Succs[b] {
			if dom.Dominates(s, b) {
				l := byHeader[s]
				if l == nil {
					l = &cfg.Loop{Header: s}
					byHeader[s] = l
				}
				l.Latches = append(l.Latches, b)
			}
		}
	}
	var loops []*cfg.Loop
	for _, l := range byHeader {
		body := map[ir.BlockID]bool{l.Header: true}
		var stack []ir.BlockID
		for _, latch := range l.Latches {
			if !body[latch] {
				body[latch] = true
				stack = append(stack, latch)
			}
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range g.Preds[b] {
				if !body[p] && g.Reachable(p) {
					body[p] = true
					stack = append(stack, p)
				}
			}
		}
		for b := range body {
			l.Body = append(l.Body, b)
		}
		sort.Slice(l.Body, func(i, j int) bool { return l.Body[i] < l.Body[j] })
		loops = append(loops, l)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i].Header < loops[j].Header })
	return loops
}

// requireLoopsMatch fails the test unless NaturalLoops and the unfiltered
// reference find the same headers, latches and bodies in prog, and returns
// how many loops they found.
func requireLoopsMatch(t *testing.T, label string, prog *ir.Program) int {
	t.Helper()
	g := cfg.New(prog)
	dom := g.Dominators()
	got, want := g.NaturalLoops(dom), refNaturalLoops(g, dom)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: loops %s, the unfiltered reference finds %s", label, renderLoops(got), renderLoops(want))
	}
	return len(got)
}

func renderLoops(loops []*cfg.Loop) string {
	s := ""
	for _, l := range loops {
		s += fmt.Sprintf("{header %d latches %v body %v}", l.Header, l.Latches, l.Body)
	}
	return "[" + s + "]"
}

// progOf builds a program with the shape of a graph of at most two
// successors per vertex, rooted at vertex 0.
func progOf(t *testing.T, succs [][]ir.BlockID) *ir.Program {
	t.Helper()
	bd := ir.NewBuilder("graph")
	for v := range succs {
		bd.NewBlock(fmt.Sprintf("v%d", v))
	}
	for v, ss := range succs {
		bd.SetBlock(ir.BlockID(v))
		switch len(ss) {
		case 0:
			bd.Ret(ir.ConstVal(0))
		case 1:
			bd.Br(ss[0])
		case 2:
			bd.CondBr(ir.RegVal(bd.Const(1)), ss[0], ss[1])
		default:
			t.Fatalf("vertex %d has %d successors", v, len(ss))
		}
	}
	prog, err := bd.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// compileWithPasses lowers src and runs the default passes, with the i-cache
// variant of the pass set when icache is true.
func compileWithPasses(t *testing.T, src string, maxUnroll int, icache bool) *ir.Program {
	t.Helper()
	ast, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	lopts := lower.DefaultOptions()
	if maxUnroll > 0 {
		lopts.MaxUnroll = maxUnroll
	}
	prog, err := lower.Lower(ast, lopts)
	if err != nil {
		t.Fatalf("lower: %v\n%s", err, src)
	}
	popts := passes.Default()
	popts.ICacheModeled = icache
	if _, err := passes.Run(prog, popts); err != nil {
		t.Fatalf("passes: %v\n%s", err, src)
	}
	return prog
}

// TestNaturalLoopsMatchUnfiltered: the reverse-postorder pre-filter may skip
// only edges that are not back edges. NaturalLoops must find the same loops
// as the unfiltered reference on every graph of TestWTOOf with at most two
// successors per vertex (among them a self-loop and an irreducible
// two-entry cycle), on every corpus program as the analysis compiles it and
// with loops kept (MaxUnroll 1), and on the 120 gen.Sized(2) programs
// TestFixpointIsStable analyzes, under both pass sets.
func TestNaturalLoopsMatchUnfiltered(t *testing.T) {
	loops := 0
	for _, c := range wtoCases {
		if slices.ContainsFunc(c.succs, func(ss []ir.BlockID) bool { return len(ss) > 2 }) {
			continue
		}
		loops += requireLoopsMatch(t, c.name, progOf(t, c.succs))
	}
	corpus := []bench.Benchmark{{Name: "fig2", Kind: bench.WCET, Code: bench.Fig2Program(-1)}}
	for _, b := range append(corpus, bench.All()...) {
		src := b.Code
		if b.Kind == bench.SideChannel {
			src = bench.WithClient(b, 4096)
		}
		for _, unroll := range []int{0, 1} {
			for _, icache := range []bool{false, true} {
				label := fmt.Sprintf("%s/unroll=%d/icache=%v", b.Name, unroll, icache)
				loops += requireLoopsMatch(t, label, compileWithPasses(t, src, unroll, icache))
			}
		}
	}
	for seed := 1; seed <= 120; seed++ {
		src := gen.Program(rand.New(rand.NewSource(int64(seed))), gen.Sized(2))
		for _, icache := range []bool{false, true} {
			label := fmt.Sprintf("gen%d/icache=%v", seed, icache)
			loops += requireLoopsMatch(t, label, compileWithPasses(t, src, 1, icache))
		}
	}
	if loops == 0 {
		t.Fatal("no loop found")
	}
	t.Logf("%d loops match the unfiltered reference", loops)
}
