package core

import (
	"fmt"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/cache"
	"specabsint/internal/cfg"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/lower"
	"specabsint/internal/passes"
	"specabsint/internal/source"
)

func compile(tb testing.TB, src string) *ir.Program {
	tb.Helper()
	ast, err := source.Parse(src)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	prog, err := lower.Lower(ast, lower.DefaultOptions())
	if err != nil {
		tb.Fatalf("lower: %v", err)
	}
	return prog
}

// loadsOf returns the Load instructions on the named symbol, in program
// order.
func loadsOf(prog *ir.Program, name string) []*ir.Instr {
	sym := prog.SymbolByName(name)
	var out []*ir.Instr
	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpLoad && in.Sym == sym.ID {
				out = append(out, in)
			}
		}
	}
	return out
}

// fig2Source is the paper's Fig. 2 program: preload 510 lines of ph, branch
// on an uncached p, then access ph[k] with a secret k.
const fig2Source = `
char ph[64*510];
char l1[64];
char l2[64];
char p;
int main() {
	reg int i;
	reg int tmp;
	secret reg int k;
	for (i = 0; i < 64*510; i += 64) { tmp = ph[i]; }
	if (p == 0) { tmp = l1[0]; }
	else { tmp = l2[0]; }
	tmp = ph[k];
	return tmp;
}`

func TestFig2NonSpeculativeProvesHit(t *testing.T) {
	prog := compile(t, fig2Source)
	opts := DefaultOptions()
	opts.Speculative = false
	res, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	phLoads := loadsOf(prog, "ph")
	final := phLoads[len(phLoads)-1] // ph[k]
	cls, ok := res.ClassOf(final.ID)
	if !ok {
		t.Fatal("ph[k] unreachable?")
	}
	if cls != cache.AlwaysHit {
		t.Errorf("non-speculative analysis: ph[k] is %v, want always-hit "+
			"(the unsound baseline must prove the hit)", cls)
	}
}

func TestFig2SpeculativeDetectsMiss(t *testing.T) {
	prog := compile(t, fig2Source)
	res, err := Analyze(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	phLoads := loadsOf(prog, "ph")
	final := phLoads[len(phLoads)-1]
	cls, ok := res.ClassOf(final.ID)
	if !ok {
		t.Fatal("ph[k] unreachable?")
	}
	if cls == cache.AlwaysHit {
		t.Error("speculative analysis must NOT prove ph[k] always-hit: " +
			"mis-speculation loads both l1 and l2, evicting a ph line")
	}
	if res.SpecMissCount() == 0 {
		t.Error("expected speculative (wrong-path) misses, got none")
	}
	if len(res.Flows) == 0 || res.Branches == 0 {
		t.Errorf("colors=%d branches=%d, want > 0", len(res.Flows), res.Branches)
	}
}

func TestFig2SpeculativeFindsMoreMisses(t *testing.T) {
	prog := compile(t, fig2Source)
	nonSpecOpts := DefaultOptions()
	nonSpecOpts.Speculative = false
	nonSpec, err := Analyze(prog, nonSpecOpts)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Analyze(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if spec.MissCount() <= nonSpec.MissCount() {
		t.Errorf("spec misses = %d, non-spec = %d; speculation must add misses",
			spec.MissCount(), nonSpec.MissCount())
	}
}

// fig7Source is the Fig. 7 diamond: load a,b,c; branch on a register; the
// arms load d / e; the join is observed.
const fig7Source = `
int a; int b; int c; int d; int e;
int main(reg int cond) {
	reg int t;
	t = a; t = b; t = c;
	if (cond > 0) { t = d; }
	else { t = e; }
	return t + a;
}`

// fig7Opts is a 4-line fully associative cache with the speculation window
// ending at the branch body, as the paper's Fig. 7 walk-through assumes
// ("instB is the boundary within which roll-back occurs").
func fig7Opts() Options {
	o := DefaultOptions()
	o.Cache = layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 4}
	o.DepthMiss = 3 // load + mov + br: the branch arm exactly
	o.DepthHit = 0
	return o
}

// mustState extracts, for the block containing the final load of `a`, the
// must ages by symbol name.
func fig7FinalState(t *testing.T, res *Result) map[string]int {
	t.Helper()
	prog := res.Prog
	aLoads := loadsOf(prog, "a")
	final := aLoads[len(aLoads)-1]
	info, ok := res.Access[final.ID]
	if !ok {
		t.Fatal("final load of a not classified")
	}
	// Walk the block's normal flow up to the final load.
	st := res.In[info.Block].Clone()
	b := prog.Block(info.Block)
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.ID == final.ID {
			break
		}
		if in.Op == ir.OpLoad || in.Op == ir.OpStore {
			res.Domain().Transfer(st, res.AccessOf(in))
		}
	}
	out := map[string]int{}
	st.ForEachMust(func(blk layout.BlockID, age int) {
		sym := res.Layout.SymbolOfBlock(blk)
		if sym != nil {
			out[sym.Name] = age
		}
	})
	return out
}

func TestFig7NonSpeculativeKeepsA(t *testing.T) {
	prog := compile(t, fig7Source)
	opts := fig7Opts()
	opts.Speculative = false
	res, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := fig7FinalState(t, res)
	// Paper Fig. 7, non-speculative: {a, b, c} all cached at the join.
	want := map[string]int{"c": 2, "b": 3, "a": 4}
	for name, age := range want {
		if got[name] != age {
			t.Errorf("%s at age %d, want %d (state %v)", name, got[name], age, got)
		}
	}
	aLoads := loadsOf(prog, "a")
	if cls, _ := res.ClassOf(aLoads[len(aLoads)-1].ID); cls != cache.AlwaysHit {
		t.Errorf("non-spec: final load of a should be always-hit, got %v", cls)
	}
}

func TestFig7JustInTimeMerging(t *testing.T) {
	prog := compile(t, fig7Source)
	res, err := Analyze(prog, fig7Opts())
	if err != nil {
		t.Fatal(err)
	}
	got := fig7FinalState(t, res)
	// Paper Fig. 7, optimal (JIT) merge: only {b, c} survive in the must
	// state; a is evicted by the speculative double-load of d and e.
	if _, ok := got["a"]; ok {
		t.Errorf("a still must-cached under speculation: %v", got)
	}
	if got["c"] != 3 || got["b"] != 4 {
		t.Errorf("got %v, want c:3 b:4", got)
	}
	aLoads := loadsOf(prog, "a")
	if cls, _ := res.ClassOf(aLoads[len(aLoads)-1].ID); cls == cache.AlwaysHit {
		t.Error("speculative: final load of a must not be always-hit")
	}
}

func TestSpeculativeNoBranchesEqualsBaseline(t *testing.T) {
	src := `
	int a[32];
	int main() {
		int s = 0;
		for (int i = 0; i < 32; i++) { s += a[i]; }
		return s;
	}`
	prog := compile(t, src)
	opts := DefaultOptions()
	opts.Cache = layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 8}
	spec, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Speculative = false
	base, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if spec.MissCount() != base.MissCount() {
		t.Errorf("straight-line program: spec misses %d != base %d",
			spec.MissCount(), base.MissCount())
	}
	if len(spec.Flows) != 0 {
		t.Errorf("no conditional branches, but %d colors", len(spec.Flows))
	}
}

// TestEngineMatchesAlgorithm1 checks the non-speculative engine against
// AnalyzeAlgorithm1, the textbook Algorithm 1, compiled without and with the
// passes. The last source's branch is resolved by the passes, so both must
// leave its dead arm unreached. The corpus runs at 64 sets × 8 ways under
// the default unroll and with loops kept (MaxUnroll 1), where Algorithm 1
// widens on adpcm, jdmarker, gtk and vga, and with loops kept also on
// layer3, g72 and des. At the paper's cache it runs under the default
// unroll on the programs whose effective CFG has no loop: on some of the
// others the two widen at different times, and the engine proves accesses
// always-hit that Algorithm 1 leaves unknown. Under -race or -short the
// corpus is cut to fig2, vga, g72 and hash.
func TestEngineMatchesAlgorithm1(t *testing.T) {
	check := func(label string, prog *ir.Program, geom layout.CacheConfig) {
		t.Helper()
		opts := DefaultOptions()
		opts.Cache = geom
		opts.Speculative = false
		eng, err := Analyze(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		alg1, err := AnalyzeAlgorithm1(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		if eng.AccessCount() != alg1.AccessCount() {
			t.Errorf("%s: access counts differ: %d vs %d", label, eng.AccessCount(), alg1.AccessCount())
		}
		for id, a := range eng.Access {
			b, ok := alg1.Access[id]
			if !ok || a.Class != b.Class {
				t.Errorf("%s: instr %d classified %v by engine, %v by Algorithm 1", label, id, a.Class, b.Class)
			}
		}
	}
	lowerAt := func(src string, maxUnroll int, withPasses bool) *ir.Program {
		t.Helper()
		ast, err := source.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lower.Lower(ast, lower.Options{MaxUnroll: maxUnroll})
		if err != nil {
			t.Fatal(err)
		}
		if withPasses {
			if _, err := passes.Run(prog, passes.Default()); err != nil {
				t.Fatal(err)
			}
		}
		return prog
	}
	defaultUnroll := lower.DefaultOptions().MaxUnroll
	srcs := []string{
		fig2Source,
		fig7Source,
		`int t[16]; int main() { int s = 0;
			for (int i = 0; i < 16; i++) { if (t[i] > 0) { s += t[i]; } }
			return s; }`,
		`int a; int b; int main(int x) {
			while (x > 0) { a = a + b; x = x - 1; }
			return a; }`,
		`int t[64]; int u[64]; int main() { reg int flag = 0; int s = t[0];
			if (flag) { s = s + u[0] + u[16] + u[32] + u[48]; }
			return s + t[16]; }`,
	}
	for i, src := range srcs {
		for _, withPasses := range []bool{false, true} {
			check(fmt.Sprintf("src %d (passes %v)", i, withPasses), lowerAt(src, defaultUnroll, withPasses),
				layout.CacheConfig{LineSize: 64, NumSets: 2, Assoc: 8})
		}
	}
	cheap := raceDetectorOn || testing.Short()
	cheapSet := map[string]bool{"fig2": true, "vga": true, "g72": true, "hash": true}
	names := []string{"fig2"}
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	for _, name := range names {
		if cheap && !cheapSet[name] {
			continue
		}
		src := corpusSource(t, name)
		for _, withPasses := range []bool{false, true} {
			for _, unroll := range []int{defaultUnroll, 1} {
				check(fmt.Sprintf("%s at 64x8 (unroll %d, passes %v)", name, unroll, withPasses),
					lowerAt(src, unroll, withPasses), setAssocConfig)
			}
			prog := lowerAt(src, defaultUnroll, withPasses)
			if cfg.EffectiveWTO(prog).NumComponents == 0 {
				check(fmt.Sprintf("%s at the paper's cache (passes %v)", name, withPasses), prog, layout.PaperConfig())
			}
		}
	}
}

func TestStrategiesOrderedByPrecision(t *testing.T) {
	prog := compile(t, fig2Source)
	hits := map[Strategy]int{}
	for _, s := range []Strategy{StrategyJustInTime, StrategyMergeAtRollback, StrategyPerRollbackBlock} {
		opts := DefaultOptions()
		opts.Strategy = s
		res, err := Analyze(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		hits[s] = res.HitCount()
	}
	if hits[StrategyJustInTime] < hits[StrategyMergeAtRollback] {
		t.Errorf("JIT (%d hits) should be at least as precise as merge-at-rollback (%d)",
			hits[StrategyJustInTime], hits[StrategyMergeAtRollback])
	}
	if hits[StrategyPerRollbackBlock] < hits[StrategyJustInTime] {
		t.Errorf("per-rollback-block (%d hits) should be at least as precise as JIT (%d)",
			hits[StrategyPerRollbackBlock], hits[StrategyJustInTime])
	}
}

func TestDynamicDepthBounding(t *testing.T) {
	// p is loaded (and thus cached) before the branch; with dynamic
	// bounding and DepthHit=0, the branch must not speculate at all, so the
	// result matches the non-speculative analysis.
	src := `
	char ph[64*8];
	char l1[64]; char l2[64]; char p;
	int main() {
		reg int i; reg int tmp;
		tmp = p;
		for (i = 0; i < 64*8; i += 64) { tmp = tmp + ph[i]; }
		if (p == 0) { tmp = l1[0]; } else { tmp = l2[0]; }
		return tmp + ph[0];
	}`
	prog := compile(t, src)
	opts := DefaultOptions()
	opts.Cache = layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 10}
	opts.DepthHit = 0
	opts.DynamicDepthBounding = true
	bounded, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Speculative = false
	base, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.MissCount() != base.MissCount() {
		t.Errorf("with a must-hit condition and b_h=0, misses should match the "+
			"baseline: %d vs %d", bounded.MissCount(), base.MissCount())
	}

	// Without dynamic bounding, speculation happens and adds misses in a
	// 10-line cache (8 ph lines + p + one of l1/l2 fill it up).
	opts = DefaultOptions()
	opts.Cache = layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 10}
	opts.DepthHit = 0
	opts.DynamicDepthBounding = false
	unbounded, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.MissCount() <= base.MissCount() {
		t.Errorf("without bounding, speculation should add misses: %d vs base %d",
			unbounded.MissCount(), base.MissCount())
	}
}

func TestDepthZeroDisablesSpeculation(t *testing.T) {
	prog := compile(t, fig2Source)
	opts := DefaultOptions()
	opts.DepthMiss = 0
	opts.DepthHit = 0
	res, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts = DefaultOptions()
	opts.Speculative = false
	base, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissCount() != base.MissCount() {
		t.Errorf("zero depths: %d misses, baseline %d", res.MissCount(), base.MissCount())
	}
}

func TestOptionsValidation(t *testing.T) {
	prog := compile(t, "int main() { return 0; }")
	opts := DefaultOptions()
	opts.DepthHit = 300 // > DepthMiss
	if _, err := Analyze(prog, opts); err == nil {
		t.Error("DepthHit > DepthMiss should be rejected")
	}
	opts = DefaultOptions()
	opts.DepthMiss = -1
	if _, err := Analyze(prog, opts); err == nil {
		t.Error("negative depth should be rejected")
	}
}

func TestIterationAndBranchCountsReported(t *testing.T) {
	prog := compile(t, fig2Source)
	res, err := Analyze(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations <= 0 {
		t.Error("iterations not counted")
	}
	if res.Branches != prog.CondBranchCount() {
		t.Errorf("branches = %d, want %d", res.Branches, prog.CondBranchCount())
	}
}

func TestLoopWithBranchTerminates(t *testing.T) {
	// A data-dependent branch inside an unbounded loop: the speculative
	// fixpoint with lanes through the back edge must terminate.
	src := `
	int tbl[8]; int acc;
	int main(int n) {
		int i = 0;
		while (i < n) {
			if (tbl[i % 8] > 0) { acc = acc + 1; }
			else { acc = acc - 1; }
			i = i + 1;
		}
		return acc;
	}`
	prog := compile(t, src)
	opts := DefaultOptions()
	opts.Cache = layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 4}
	res, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Error("no iterations recorded")
	}
}

func TestSpecAccessOnlyOnWrongPaths(t *testing.T) {
	prog := compile(t, fig7Source)
	res, err := Analyze(prog, fig7Opts())
	if err != nil {
		t.Fatal(err)
	}
	// Every speculative access instruction must also exist in the program.
	for id := range res.SpecAccess {
		found := false
		for _, b := range prog.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].ID == id {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("spec access id %d not in program", id)
		}
	}
	// The loads of d and e must be lane-classified (they are speculated).
	for _, name := range []string{"d", "e"} {
		lds := loadsOf(prog, name)
		if _, ok := res.SpecAccess[lds[0].ID]; !ok {
			t.Errorf("load of %s not classified on any speculative lane", name)
		}
	}
}
