package interval

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/cfg"
	"specabsint/internal/gen"
	"specabsint/internal/ir"
	"specabsint/internal/lower"
	"specabsint/internal/passes"
	"specabsint/internal/source"
)

// refAnalyze is the clone-based fixpoint Analyze replaced, kept as its
// reference: it clones a block's in-environment on every visit and the
// successor's on every edge, joins the clones, widens the joined copy
// against the successor's environment at a head of wto, and joins that
// back.
func refAnalyze(prog *ir.Program, wto *cfg.WTO) *Result {
	a := &analyzer{
		prog:       prog,
		res:        &Result{Index: map[int]Interval{}},
		crossIdx:   make([]int, prog.NumRegs),
		scratch:    make([]Interval, prog.NumRegs),
		scratchGen: make([]uint32, prog.NumRegs),
	}
	a.classifyRegisters()

	nBlocks := len(prog.Blocks)
	in := make([]*Env, nBlocks)
	visits := make([]int, nBlocks)

	in[prog.Entry] = a.entryEnv()
	work := []ir.BlockID{prog.Entry}
	inWork := make([]bool, nBlocks)
	inWork[prog.Entry] = true

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		visits[b]++
		a.res.Iterations++

		env := in[b].clone()
		block := prog.Block(b)
		a.transferBlock(block, env)
		for _, s := range block.EffectiveSuccs() {
			if in[s] == nil {
				in[s] = a.bottomEnv()
			}
			next := in[s].clone()
			next.join(env)
			if wto.Head[s] && visits[s] >= wideningThreshold {
				next.widen(in[s])
			}
			if in[s].join(next) {
				if !inWork[s] {
					work = append(work, s)
					inWork[s] = true
				}
			}
		}
	}
	return a.res
}

func (e *Env) clone() *Env {
	return &Env{
		Regs: append([]Interval(nil), e.Regs...),
		Mems: append([]Interval(nil), e.Mems...),
	}
}

// compileWithPasses lowers src and runs the default passes on it, as an
// analysis compiles it.
func compileWithPasses(tb testing.TB, src string, maxUnroll int) *ir.Program {
	tb.Helper()
	ast, err := source.Parse(src)
	if err != nil {
		tb.Fatalf("parse: %v\n%s", err, src)
	}
	lopts := lower.DefaultOptions()
	if maxUnroll > 0 {
		lopts.MaxUnroll = maxUnroll
	}
	prog, err := lower.Lower(ast, lopts)
	if err != nil {
		tb.Fatalf("lower: %v\n%s", err, src)
	}
	if _, err := passes.Run(prog, passes.Default()); err != nil {
		tb.Fatalf("passes: %v\n%s", err, src)
	}
	return prog
}

// requireReference fails the test unless Analyze and refAnalyze agree on
// prog's Index and Iterations, and reports whether prog has a loop, whose
// head widening may fire at.
func requireReference(t *testing.T, label string, prog *ir.Program) (looped bool) {
	t.Helper()
	wto := cfg.EffectiveWTO(prog)
	got, want := Analyze(prog, wto), refAnalyze(prog, wto)
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: %d iterations, the clone-based fixpoint takes %d", label, got.Iterations, want.Iterations)
	}
	if !maps.Equal(got.Index, want.Index) {
		for id, iv := range want.Index {
			if got.Index[id] != iv {
				t.Fatalf("%s: instr %d index %v, the clone-based fixpoint gives %v", label, id, got.Index[id], iv)
			}
		}
		t.Fatalf("%s: %d index intervals, the clone-based fixpoint gives %d", label, len(got.Index), len(want.Index))
	}
	return wto.NumComponents > 0
}

// TestAnalyzeMatchesReference: the in-place fixpoint must compute the same
// Index and Iterations as the clone-based one on every corpus program,
// lowered as the analysis lowers it and with loops kept (MaxUnroll 1), and
// on 150 generated programs of gen.Sized sizes 1–3 with
// loops kept, where widening fires. Under -short, 30 generated programs.
func TestAnalyzeMatchesReference(t *testing.T) {
	cyclic := 0
	corpus := []bench.Benchmark{{Name: "fig2", Kind: bench.WCET, Code: bench.Fig2Program(-1)}}
	for _, b := range append(corpus, bench.All()...) {
		src := b.Code
		if b.Kind == bench.SideChannel {
			src = bench.WithClient(b, 4096)
		}
		for _, unroll := range []int{0, 1} {
			label := fmt.Sprintf("%s/unroll=%d", b.Name, unroll)
			if requireReference(t, label, compileWithPasses(t, src, unroll)) {
				cyclic++
			}
		}
	}
	programs := 150
	if testing.Short() {
		programs = 30
	}
	for seed := 1; seed <= programs; seed++ {
		size := 1 + seed%3
		src := gen.Program(rand.New(rand.NewSource(int64(seed))), gen.Sized(size))
		label := fmt.Sprintf("gen%d/size=%d", seed, size)
		if requireReference(t, label, compileWithPasses(t, src, 1)) {
			cyclic++
		}
	}
	if cyclic == 0 {
		t.Fatal("no program with a loop checked")
	}
	t.Logf("%d programs with loops match the clone-based fixpoint", cyclic)
}

// FuzzIntervalAnalyze requires the in-place fixpoint to equal the
// clone-based one on generated programs: the input picks the generator's
// seed, a gen.Sized size of 1–3 and a MaxUnroll of 1–3, and the program is
// lowered and run through the default passes.
func FuzzIntervalAnalyze(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed), uint8(seed/3))
	}
	f.Fuzz(func(t *testing.T, seed int64, size, unroll uint8) {
		n, u := 1+int(size%3), 1+int(unroll%3)
		src := gen.Program(rand.New(rand.NewSource(seed)), gen.Sized(n))
		requireReference(t, fmt.Sprintf("seed %d size %d unroll %d", seed, n, u), compileWithPasses(t, src, u))
	})
}
