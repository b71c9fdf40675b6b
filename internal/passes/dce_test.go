package passes

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/gen"
	"specabsint/internal/ir"
	"specabsint/internal/lower"
	"specabsint/internal/source"
)

// lowerSource parses and lowers src, reporting false when the front end
// rejects it.
func lowerSource(src string, maxUnroll int) (*ir.Program, bool) {
	ast, err := source.Parse(src)
	if err != nil {
		return nil, false
	}
	opts := lower.DefaultOptions()
	if maxUnroll > 0 {
		opts.MaxUnroll = maxUnroll
	}
	prog, err := lower.Lower(ast, opts)
	return prog, err == nil
}

// nestSource renders a nested-loops program: constant-trip loops over the
// given trip counts with a block-scoped int in the innermost body and one
// data-dependent branch per iteration of the second-innermost loop.
func nestSource(dims []int) string {
	var sb strings.Builder
	sb.WriteString("int src[1024];\nint dst[256];\nint hist[16];\nint acc;\n")
	sb.WriteString("int main() {\n\treg int s;\n\ts = 0;\n")
	ivs := []string{"i", "j", "l"}
	idx := ""
	for d, n := range dims {
		fmt.Fprintf(&sb, "for (int %s = 0; %s < %d; %s++) {\n", ivs[d], ivs[d], n, ivs[d])
		if idx == "" {
			idx = ivs[d]
		} else {
			idx = fmt.Sprintf("(%s) * %d + %s", idx, n, ivs[d])
		}
	}
	fmt.Fprintf(&sb, "int k;\nk = src[(%s) & 1023] + 3;\ndst[(%s) & 255] = k ^ s;\ns = s + k;\n", idx, idx)
	for d := len(dims) - 1; d >= 0; d-- {
		if d == len(dims)-2 {
			fmt.Fprintf(&sb, "if (s > acc) { hist[%s & 15] = s; }\n", ivs[d])
		}
		sb.WriteString("}\n")
	}
	sb.WriteString("acc = s;\nreturn s;\n}\n")
	return sb.String()
}

// fixpointSources are the programs TestDCEReachesFixpoint runs on: the paper
// corpus, nested-loops shapes, and seeded generated programs.
func fixpointSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{"fig2": bench.Fig2Program(-1)}
	for _, b := range bench.All() {
		code := b.Code
		if b.Kind == bench.SideChannel {
			code = bench.WithClient(b, 4096)
		}
		srcs[b.Name] = code
	}
	for _, dims := range [][]int{{8, 8}, {4, 4, 8}, {16, 16}, {8, 8, 4}, {32, 16}, {8, 8, 8}, {8, 12, 8}, {32, 32}} {
		srcs[fmt.Sprint("nest", dims)] = nestSource(dims)
	}
	n := 200
	if testing.Short() {
		n = 40
	}
	cfgs := []gen.Config{gen.Default(), gen.Secrets(), gen.Sized(2), gen.Sized(3), gen.Fenced()}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		srcs[fmt.Sprint("gen", i)] = gen.Program(rng, cfgs[i%len(cfgs)])
	}
	return srcs
}

// TestDCEReachesFixpoint checks the rule dce stops by: after the pipeline,
// whose dce repeats a round only after a round nopped a reader of a
// cross-block register, one more round nops nothing. Loops are unrolled as
// lowering does by default and kept rolled (MaxUnroll 1), where liveness
// flows around back edges.
func TestDCEReachesFixpoint(t *testing.T) {
	compiled := 0
	for name, src := range fixpointSources(t) {
		for _, maxUnroll := range []int{0, 1} {
			prog, ok := lowerSource(src, maxUnroll)
			if !ok {
				continue
			}
			compiled++
			if _, err := Run(prog, Default()); err != nil {
				t.Fatalf("%s (MaxUnroll %d): %v", name, maxUnroll, err)
			}
			if n, _ := dceRound(prog); n != 0 {
				t.Errorf("%s (MaxUnroll %d): another DCE round nopped %d instructions", name, maxUnroll, n)
			}
		}
	}
	if compiled < 100 {
		t.Fatalf("only %d programs compiled", compiled)
	}
}

// TestDCESecondRound pins a program that needs a second round: the only
// reader of x is the dead y = x * 2 in another block, so the first round's
// liveness keeps x's definition, and only the second nops it.
func TestDCESecondRound(t *testing.T) {
	prog, ok := lowerSource(`int main(int n) { reg int x; x = n + 1; if (n > 0) { reg int y; y = x * 2; } return 0; }`, 0)
	if !ok {
		t.Fatal("program does not compile")
	}
	sccp(prog)
	copyProp(prog)
	resolveBranches(prog)
	if n := dce(prog); n != 5 {
		t.Fatalf("dce nopped %d instructions, want 5 (3 in round 1, then x's add and mov)\n%s", n, prog)
	}
	for _, in := range prog.Blocks[prog.Entry].Instrs {
		if in.Op == ir.OpAdd || in.Op == ir.OpMov {
			t.Fatalf("x's definition survived: %s\n%s", prog.FormatInstr(&in), prog)
		}
	}
}

// TestCopyPropStaleSource overwrites a copy's source after thousands of
// other copies in the same block: a later use of the copy must keep reading
// the copy, and copies from other sources stay propagated.
func TestCopyPropStaleSource(t *testing.T) {
	const copies = 2500
	bd := ir.NewBuilder("stale")
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	src, other := bd.NewReg(), bd.NewReg()
	bd.MarkInputReg(src)
	bd.MarkInputReg(other)
	d := bd.NewReg()
	bd.Mov(d, ir.RegVal(src))
	fromSrc, fromOther := bd.NewReg(), bd.NewReg()
	for i := 0; i < copies; i++ {
		// Alternate sources so the block holds thousands of live mappings
		// from both registers when src is overwritten.
		if i%2 == 0 {
			bd.Mov(fromSrc, ir.RegVal(src))
		} else {
			bd.Mov(fromOther, ir.RegVal(other))
		}
	}
	early := bd.Binop(ir.OpAdd, ir.RegVal(d), ir.ConstVal(1))
	bd.Mov(src, ir.ConstVal(7))
	late := bd.Binop(ir.OpAdd, ir.RegVal(d), ir.RegVal(fromSrc))
	sum := bd.Binop(ir.OpAdd, ir.RegVal(fromOther), ir.RegVal(early))
	total := bd.Binop(ir.OpAdd, ir.RegVal(late), ir.RegVal(sum))
	bd.Ret(ir.RegVal(total))
	prog := bd.Finish(entry)
	copyProp(prog)
	byDst := map[ir.Reg]*ir.Instr{}
	for i := range prog.Blocks[0].Instrs {
		if in := &prog.Blocks[0].Instrs[i]; in.Op == ir.OpAdd {
			byDst[in.Dst] = in
		}
	}
	for _, c := range []struct {
		dst  ir.Reg
		a, b ir.Value
	}{
		{early, ir.RegVal(src), ir.ConstVal(1)},   // before the overwrite, d holds src's value
		{late, ir.RegVal(d), ir.RegVal(fromSrc)},  // after it, src no longer does
		{sum, ir.RegVal(other), ir.RegVal(early)}, // other is never overwritten
	} {
		if in := byDst[c.dst]; in.A != c.a || in.B != c.b {
			t.Errorf("got %s, want operands %s, %s", prog.FormatInstr(in), c.a, c.b)
		}
	}
}
