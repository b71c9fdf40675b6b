package cfg_test

import (
	"strings"
	"testing"

	"specabsint/internal/cfg"
	"specabsint/internal/ir"
	"specabsint/internal/lower"
	"specabsint/internal/source"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	ast, err := source.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(ast, lower.Options{MaxUnroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// diamond builds entry -> (a | b) -> join -> ret.
func diamond(t *testing.T) *ir.Program {
	t.Helper()
	bd := ir.NewBuilder("diamond")
	entry := bd.NewBlock("entry")
	a := bd.NewBlock("a")
	b := bd.NewBlock("b")
	join := bd.NewBlock("join")
	bd.SetBlock(entry)
	c := bd.Const(1)
	bd.CondBr(ir.RegVal(c), a, b)
	bd.SetBlock(a)
	bd.Br(join)
	bd.SetBlock(b)
	bd.Br(join)
	bd.SetBlock(join)
	bd.Ret(ir.ConstVal(0))
	return bd.Finish(entry)
}

func TestGraphEdges(t *testing.T) {
	g := cfg.New(diamond(t))
	if len(g.Succs[0]) != 2 {
		t.Fatalf("entry succs = %v", g.Succs[0])
	}
	if len(g.Preds[3]) != 2 {
		t.Fatalf("join preds = %v", g.Preds[3])
	}
}

func TestRPOStartsAtEntry(t *testing.T) {
	g := cfg.New(diamond(t))
	if g.RPO[0] != g.Prog.Entry {
		t.Errorf("RPO[0] = %d, want entry %d", g.RPO[0], g.Prog.Entry)
	}
	if g.RPO[len(g.RPO)-1] != 3 {
		t.Errorf("RPO last = %d, want join", g.RPO[len(g.RPO)-1])
	}
}

func TestPostDominatorsDiamond(t *testing.T) {
	pdom := cfg.PostDominators(diamond(t))
	if pdom.ImmediatePostDom(0) != 3 {
		t.Errorf("ipdom(entry) = %d, want join (3)", pdom.ImmediatePostDom(0))
	}
	if pdom.ImmediatePostDom(1) != 3 || pdom.ImmediatePostDom(2) != 3 {
		t.Error("both arms should be immediately post-dominated by join")
	}
	if pdom.ImmediatePostDom(3) != pdom.VirtualExit {
		t.Errorf("ipdom(join) = %d, want virtual exit", pdom.ImmediatePostDom(3))
	}
}

func TestPostDominatorsMultipleExits(t *testing.T) {
	// entry -> (retA | retB): the branch's ipdom is the virtual exit.
	bd := ir.NewBuilder("twoexits")
	entry := bd.NewBlock("entry")
	a := bd.NewBlock("a")
	b := bd.NewBlock("b")
	bd.SetBlock(entry)
	c := bd.Const(0)
	bd.CondBr(ir.RegVal(c), a, b)
	bd.SetBlock(a)
	bd.Ret(ir.ConstVal(1))
	bd.SetBlock(b)
	bd.Ret(ir.ConstVal(2))
	prog := bd.Finish(entry)
	pdom := cfg.PostDominators(prog)
	if pdom.ImmediatePostDom(entry) != pdom.VirtualExit {
		t.Errorf("ipdom(entry) = %d, want virtual exit %d",
			pdom.ImmediatePostDom(entry), pdom.VirtualExit)
	}
}

// TestNaturalLoopsSimple: a for loop is one WTO component, a marked head
// followed by its body.
func TestNaturalLoopsSimple(t *testing.T) {
	prog := compile(t, `
		int main() {
			int s = 0;
			for (int i = 0; i < 10; i++) { s += i; }
			return s;
		}`)
	w := cfg.EffectiveWTO(prog)
	if w.NumComponents != 1 {
		t.Fatalf("found %d loops, want 1", w.NumComponents)
	}
	for p, v := range w.Order {
		if w.Head[v] && w.End[p] == p+1 {
			t.Errorf("loop head %d has an empty body", v)
		}
	}
}

// TestNaturalLoopsNested: nested for loops are two WTO components, the
// inner one in the outer one's body.
func TestNaturalLoopsNested(t *testing.T) {
	prog := compile(t, `
		int main() {
			int s = 0;
			for (int i = 0; i < 3; i++) {
				for (int j = 0; j < 3; j++) { s += j; }
			}
			return s;
		}`)
	w := cfg.EffectiveWTO(prog)
	if w.NumComponents != 2 {
		t.Fatalf("found %d loops, want 2", w.NumComponents)
	}
	for p, v := range w.Order {
		if !w.Head[v] {
			continue
		}
		for q := p + 1; q < w.End[p]; q++ {
			if w.Head[w.Order[q]] {
				return
			}
		}
	}
	t.Fatal("no loop nested inside the other")
}

func TestNoLoopsInStraightLine(t *testing.T) {
	prog := compile(t, "int main() { int x = 1; return x; }")
	if w := cfg.EffectiveWTO(prog); w.NumComponents != 0 {
		t.Errorf("found %d loops in straight-line code", w.NumComponents)
	}
}

func TestWhileLoopDetected(t *testing.T) {
	prog := compile(t, `
		int main() {
			int i = 0;
			while (i < 100) { i += 3; }
			return i;
		}`)
	if w := cfg.EffectiveWTO(prog); w.NumComponents != 1 {
		t.Fatalf("found %d loops, want 1", w.NumComponents)
	}
}

func TestDOTOutput(t *testing.T) {
	g := cfg.New(diamond(t))
	dot := g.DOT()
	for _, want := range []string{"digraph cfg", "b0 -> b1", "b0 -> b2", `label="T"`, `label="F"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestUnreachableBlockHandled(t *testing.T) {
	bd := ir.NewBuilder("unreach")
	entry := bd.NewBlock("entry")
	dead := bd.NewBlock("dead")
	bd.SetBlock(entry)
	bd.Ret(ir.ConstVal(0))
	bd.SetBlock(dead)
	bd.Ret(ir.ConstVal(1))
	prog := bd.Finish(entry)
	g := cfg.New(prog)
	if g.Reachable(dead) {
		t.Error("dead block should be unreachable")
	}
	if !strings.Contains(g.DOT(), "b0") {
		t.Error("DOT should include entry")
	}
}
