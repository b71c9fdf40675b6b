package wcet

import (
	"fmt"
	"testing"

	"specabsint/internal/cfg"
	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/irverify"
	"specabsint/internal/layout"
	"specabsint/internal/lower"
	"specabsint/internal/passes"
	"specabsint/internal/source"
)

func analyze(t *testing.T, src string, opts core.Options, maxUnroll int) *core.Result {
	t.Helper()
	ast, err := source.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(ast, lower.Options{MaxUnroll: maxUnroll})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// analyzeResolved lowers src with its loops kept, runs the pass pipeline,
// whose branch resolution turns a branch on a constant condition into an
// unconditional jump, and analyzes the result.
func analyzeResolved(t *testing.T, src string) *core.Result {
	t.Helper()
	ast, err := source.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(ast, lower.Options{MaxUnroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := passes.Run(prog, passes.Default())
	if err != nil {
		t.Fatal(err)
	}
	if pr.ResolvedBranches == 0 {
		t.Fatal("the pass pipeline resolved no branch")
	}
	res, err := core.Analyze(prog, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// loopHeads returns the heads of w's components, outermost first.
func loopHeads(w *cfg.WTO) []ir.BlockID {
	var heads []ir.BlockID
	for _, v := range w.Order {
		if w.Head[v] {
			heads = append(heads, v)
		}
	}
	return heads
}

func TestCountsStraightLine(t *testing.T) {
	src := `
	int a;
	int main() {
		int x = a;  // miss (cold)
		int y = a;  // hit
		return x + y;
	}`
	opts := core.DefaultOptions()
	res := analyze(t, src, opts, 4096)
	est := New(res, DefaultCosts())
	if est.Accesses == 0 {
		t.Fatal("no accesses")
	}
	if est.AlwaysHits == 0 {
		t.Error("second load of a should be a guaranteed hit")
	}
	if est.Misses == 0 {
		t.Error("cold loads should count as misses")
	}
	if est.Misses != est.Accesses-est.AlwaysHits {
		t.Errorf("misses %d != accesses %d - hits %d", est.Misses, est.Accesses, est.AlwaysHits)
	}
}

func TestWorstCasePicksLongerArm(t *testing.T) {
	// The two arms touch different numbers of cold lines; the bound must
	// charge the expensive one.
	src := `
	int a[64]; int b[16]; int p;
	int main() {
		reg int t;
		if (p > 0) {
			t = a[0]; t = a[16]; t = a[32]; t = a[48];
		} else {
			t = b[0];
		}
		return t;
	}`
	opts := core.DefaultOptions()
	opts.Speculative = false
	res := analyze(t, src, opts, 4096)
	costs := DefaultCosts()
	est := New(res, costs)
	if est.WorstCaseCycles < 0 {
		t.Fatal("acyclic program reported unbounded")
	}
	// Lower bound: 4 cold misses on the long arm + the p load.
	if est.WorstCaseCycles < 5*costs.MissPenalty {
		t.Errorf("wcet = %d, want >= %d", est.WorstCaseCycles, 5*costs.MissPenalty)
	}
}

func TestCyclicCFGUnbounded(t *testing.T) {
	src := `
	int a;
	int main(int n) {
		int s = 0;
		while (n > 0) { s += a; n = n - 1; }
		return s;
	}`
	res := analyze(t, src, core.DefaultOptions(), 1)
	est := New(res, DefaultCosts())
	if est.WorstCaseCycles != -1 {
		t.Errorf("cyclic CFG wcet = %d, want -1", est.WorstCaseCycles)
	}
}

func TestSpeculationIncreasesBound(t *testing.T) {
	// The Fig. 2 pattern: under speculation ph[k] is no longer always-hit,
	// so the bound grows.
	src := `
	char ph[64*32];
	char l1[64]; char l2[64]; char p;
	int main() {
		reg int i; reg int tmp;
		reg int k;
		for (i = 0; i < 64*32; i += 64) { tmp = ph[i]; }
		if (p == 0) { tmp = l1[0]; } else { tmp = l2[0]; }
		tmp = ph[k];
		return tmp;
	}`
	cacheCfg := layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 34}
	spec := core.DefaultOptions()
	spec.Cache = cacheCfg
	nonspec := spec
	nonspec.Speculative = false

	costs := DefaultCosts()
	specEst := New(analyze(t, src, spec, 4096), costs)
	baseEst := New(analyze(t, src, nonspec, 4096), costs)
	if specEst.WorstCaseCycles <= baseEst.WorstCaseCycles {
		t.Errorf("speculative wcet %d should exceed baseline %d",
			specEst.WorstCaseCycles, baseEst.WorstCaseCycles)
	}
	if specEst.SpecMisses == 0 {
		t.Error("no speculative misses counted")
	}
	if specEst.SpecExtraCycles != int64(specEst.SpecMisses)*costs.MissPenalty {
		t.Error("spec extra cycles inconsistent")
	}
}

func TestEstimateString(t *testing.T) {
	src := `int a; int main() { return a; }`
	res := analyze(t, src, core.DefaultOptions(), 4096)
	est := New(res, DefaultCosts())
	if est.String() == "" {
		t.Error("empty rendering")
	}
	res2 := analyze(t, `int a; int main(int n) { int s = 0; while (n > 0) { s += a; n--; } return s; }`,
		core.DefaultOptions(), 1)
	est2 := New(res2, DefaultCosts())
	if est2.String() == "" {
		t.Error("empty rendering for cyclic")
	}
}

func TestBoundedWCETSimpleLoop(t *testing.T) {
	src := `
	int a;
	int main(int n) {
		int s = 0;
		while (n > 0) { s += a; n = n - 1; }
		return s;
	}`
	res := analyze(t, src, core.DefaultOptions(), 1)
	costs := DefaultCosts()

	// Without bounds: unbounded.
	if est := NewWithBounds(res, costs, BoundOptions{}); est.WorstCaseCycles != -1 {
		t.Errorf("no bounds: wcet = %d, want -1", est.WorstCaseCycles)
	}
	// With a default bound, the estimate is finite and grows with the bound.
	est10 := NewWithBounds(res, costs, BoundOptions{DefaultLoopBound: 10})
	est20 := NewWithBounds(res, costs, BoundOptions{DefaultLoopBound: 20})
	if est10.WorstCaseCycles <= 0 {
		t.Fatalf("bounded wcet = %d, want finite positive", est10.WorstCaseCycles)
	}
	if est20.WorstCaseCycles <= est10.WorstCaseCycles {
		t.Errorf("doubling the bound did not grow the estimate: %d vs %d",
			est20.WorstCaseCycles, est10.WorstCaseCycles)
	}
}

// TestBoundedWCETChargesLoopExit: a while loop whose body runs k times runs
// its head k+1 times, the last to leave the loop. On a loop with one path
// through its body, the bound-k estimate is exactly the path that runs the
// body k times: the blocks outside the loop once, the head k+1 times and the
// body k times (425 cycles at k = 1, 640 at k = 2, non-speculative, under
// DefaultCosts).
func TestBoundedWCETChargesLoopExit(t *testing.T) {
	ast, err := source.Parse(`int main(int n, int a) { int s = 0; while (n > 0) { s += a; n = n - 1; } return s; }`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(ast, lower.Options{MaxUnroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := passes.Run(prog, passes.Default()); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Speculative = false
	res, err := core.Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	costs := DefaultCosts()
	cost := func(b ir.BlockID) int64 {
		c, _ := blockCost(res, costs, prog.Block(b), nil)
		return c
	}
	var outside, head, body int64
	loops := 0
	w := res.WTO
	for p := 0; p < len(w.Order); p = w.End[p] {
		if !w.Head[w.Order[p]] {
			outside += cost(w.Order[p])
			continue
		}
		loops++
		head = cost(w.Order[p])
		for q := p + 1; q < w.End[p]; q++ {
			if w.Head[w.Order[q]] {
				t.Fatal("nested loop in the body")
			}
			body += cost(w.Order[q])
		}
	}
	if loops != 1 {
		t.Fatalf("%d loops, want 1", loops)
	}
	for k := int64(1); k <= 2; k++ {
		want := outside + (k+1)*head + k*body
		got := NewWithBounds(res, costs, BoundOptions{DefaultLoopBound: k}).WorstCaseCycles
		if got != want {
			t.Errorf("bound %d: wcet = %d, want %d: %d outside the loop + %d × head %d + %d × body %d",
				k, got, want, outside, k+1, head, k, body)
		}
	}
}

func TestBoundedWCETDominatesUnrolledExact(t *testing.T) {
	// The same loop, once unrolled exactly and once bounded: the bounded
	// estimate must dominate the exact acyclic one.
	loop := `
	int a[16];
	int main() {
		int s = 0;
		for (int i = 0; i < 16; i++) { s += a[i & 15]; }
		return s;
	}`
	costs := DefaultCosts()
	exact := New(analyze(t, loop, core.DefaultOptions(), 64), costs)
	if exact.WorstCaseCycles < 0 {
		t.Fatal("unrolled version should be acyclic")
	}
	bounded := NewWithBounds(analyze(t, loop, core.DefaultOptions(), 1), costs,
		BoundOptions{DefaultLoopBound: 16})
	if bounded.WorstCaseCycles < exact.WorstCaseCycles {
		t.Errorf("bounded estimate %d below exact unrolled %d",
			bounded.WorstCaseCycles, exact.WorstCaseCycles)
	}
}

func TestBoundedWCETNestedLoops(t *testing.T) {
	src := `
	int a;
	int main(int n, int m) {
		int s = 0;
		int i = 0;
		while (i < n) {
			int j = 0;
			while (j < m) { s += a; j = j + 1; }
			i = i + 1;
		}
		return s;
	}`
	res := analyze(t, src, core.DefaultOptions(), 1)
	costs := DefaultCosts()
	small := NewWithBounds(res, costs, BoundOptions{DefaultLoopBound: 2})
	big := NewWithBounds(res, costs, BoundOptions{DefaultLoopBound: 8})
	if small.WorstCaseCycles <= 0 || big.WorstCaseCycles <= 0 {
		t.Fatalf("nested bounded wcet: %d / %d", small.WorstCaseCycles, big.WorstCaseCycles)
	}
	// Nested loops multiply: 16x the iterations should far exceed 4x cost.
	if big.WorstCaseCycles < 4*small.WorstCaseCycles {
		t.Errorf("nested bound scaling too weak: %d vs %d", big.WorstCaseCycles, small.WorstCaseCycles)
	}
}

func TestBoundedWCETPerHeaderBounds(t *testing.T) {
	src := `
	int a;
	int main(int n) {
		int s = 0;
		while (n > 0) { s += a; n = n - 1; }
		return s;
	}`
	res := analyze(t, src, core.DefaultOptions(), 1)
	heads := loopHeads(res.WTO)
	if len(heads) != 1 {
		t.Fatalf("%d loops", len(heads))
	}
	costs := DefaultCosts()
	per := NewWithBounds(res, costs, BoundOptions{
		LoopBounds: map[ir.BlockID]int64{heads[0]: 5},
	})
	def := NewWithBounds(res, costs, BoundOptions{DefaultLoopBound: 5})
	if per.WorstCaseCycles != def.WorstCaseCycles {
		t.Errorf("per-header bound %d != default bound %d",
			per.WorstCaseCycles, def.WorstCaseCycles)
	}
}

func TestBoundedWCETWithPersistence(t *testing.T) {
	// A data-dependent loop re-reading one table: the must analysis charges
	// a miss per iteration; persistence knows it misses once.
	src := `
	int tbl[16];
	int acc;
	int main(int n) {
		int i = 0;
		while (i < n) {
			acc = acc + tbl[i & 15];
			i = i + 1;
		}
		return acc;
	}`
	opts := core.DefaultOptions()
	opts.Cache = layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 8}
	res := analyze(t, src, opts, 1)
	persist, err := core.AnalyzePersistence(res.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}

	costs := DefaultCosts()
	bounds := BoundOptions{DefaultLoopBound: 100}
	plain := NewWithBounds(res, costs, bounds)
	bounds.Persistence = persist
	withP := NewWithBounds(res, costs, bounds)
	if plain.WorstCaseCycles <= 0 || withP.WorstCaseCycles <= 0 {
		t.Fatalf("estimates: %d / %d", plain.WorstCaseCycles, withP.WorstCaseCycles)
	}
	// First-miss accounting should cut the bound dramatically: 100
	// iterations of miss penalties collapse to one.
	if withP.WorstCaseCycles >= plain.WorstCaseCycles {
		t.Errorf("persistence did not improve the bound: %d vs %d",
			withP.WorstCaseCycles, plain.WorstCaseCycles)
	}
	if withP.WorstCaseCycles*2 > plain.WorstCaseCycles {
		t.Errorf("persistence improvement too small: %d vs %d",
			withP.WorstCaseCycles, plain.WorstCaseCycles)
	}
}

// TestDeadArmNotCharged: no execution enters the dead arm of a resolved
// branch, so the bound charges only the live one. With flag 0 the live path
// makes two accesses, the flag load and b[0]; at flag 1 it makes five.
func TestDeadArmNotCharged(t *testing.T) {
	src := func(flag int) string {
		return fmt.Sprintf(`
		int a[64]; int b[16];
		int flag = %d;
		int main() {
			reg int t;
			if (flag) {
				t = a[0]; t = a[16]; t = a[32]; t = a[48];
			} else {
				t = b[0];
			}
			return t;
		}`, flag)
	}
	costs := DefaultCosts()
	live := New(analyzeResolved(t, src(1)), costs)
	dead := New(analyzeResolved(t, src(0)), costs)
	if live.WorstCaseCycles < 5*costs.MissPenalty {
		t.Errorf("flag 1: wcet = %d, want >= %d for five cold loads", live.WorstCaseCycles, 5*costs.MissPenalty)
	}
	if dead.WorstCaseCycles < 0 || dead.WorstCaseCycles >= 3*costs.MissPenalty {
		t.Errorf("flag 0: wcet = %d, want below %d: the four loads of the dead arm are charged",
			dead.WorstCaseCycles, 3*costs.MissPenalty)
	}
}

// TestDeadLoopNeedsNoBound: a loop behind a resolved branch's dead edge is
// no cycle an execution can take. New bounds a program whose only loop is
// dead, and NewWithBounds needs a bound only for the live loop of a program
// with one live and one dead loop.
func TestDeadLoopNeedsNoBound(t *testing.T) {
	costs := DefaultCosts()
	res := analyzeResolved(t, `
	int a;
	int flag = 0;
	int main(int n) {
		int s = 0;
		if (flag) {
			while (n > 0) { s += a; n = n - 1; }
		}
		return s + a;
	}`)
	est := New(res, costs)
	if est.WorstCaseCycles < 0 {
		t.Errorf("only loop dead: %v", est)
	}
	if bounded := NewWithBounds(res, costs, BoundOptions{}); bounded != est {
		t.Errorf("only loop dead: NewWithBounds without bounds gives %v, New %v", bounded, est)
	}

	res = analyzeResolved(t, `
	int a;
	int flag = 0;
	int main(int n, int m) {
		int s = 0;
		while (n > 0) { s += a; n = n - 1; }
		if (flag) {
			while (m > 0) { s += a; m = m - 1; }
		}
		return s;
	}`)
	heads := loopHeads(res.WTO)
	if len(heads) != 1 {
		t.Fatalf("%d WTO components, want 1: the dead loop is none", len(heads))
	}
	bounds := BoundOptions{LoopBounds: map[ir.BlockID]int64{heads[0]: 10}}
	if est := NewWithBounds(res, costs, bounds); est.WorstCaseCycles < 0 {
		t.Errorf("live loop bounded, dead loop not: %v", est)
	}
}

// TestBoundedWCETResolvedBreak: a resolved branch that always breaks out of
// the loop turns the block ending in it into the loop's exit path. No
// iteration repeats that block, so it lies outside the loop's WTO component
// and is charged once, after the loop: one more iteration of the bound adds
// the iteration through b[16], not the four loads before the break.
func TestBoundedWCETResolvedBreak(t *testing.T) {
	res := analyzeResolved(t, `
	int a[64]; int b[64];
	int flag = 1;
	int main(int n, int y) {
		reg int s = 0;
		reg int i = 0;
		while (i < n) {
			if (y > 0) {
				s += a[1]; s += a[17]; s += a[33];
				if (flag) { break; }
				s += b[0];
			}
			s += b[16];
			i = i + 1;
		}
		return s;
	}`)
	if heads := loopHeads(res.WTO); len(heads) != 1 {
		t.Fatalf("%d loops, want 1", len(heads))
	}
	costs := DefaultCosts()
	at8 := NewWithBounds(res, costs, BoundOptions{DefaultLoopBound: 8}).WorstCaseCycles
	at9 := NewWithBounds(res, costs, BoundOptions{DefaultLoopBound: 9}).WorstCaseCycles
	if at8 < 4*costs.MissPenalty {
		t.Errorf("bound 8: wcet = %d, want >= %d for the loads before the break", at8, 4*costs.MissPenalty)
	}
	// An iteration loads n, y and b[16]; the exit path loads a[1], a[17],
	// a[33] and flag.
	if step := at9 - at8; step <= 0 || step >= 4*costs.MissPenalty {
		t.Errorf("one more iteration adds %d cycles, want below %d: the loads before the break run once",
			step, 4*costs.MissPenalty)
	}
}

// TestBoundedWCETSelfLoop: a block that branches back to itself is a loop
// whose body is the block alone, a WTO component with an empty body. With
// bound b it runs b+1 times: entry, (b+1) × the loop block, exit. MiniC
// lowering emits no self-loop, so the program is built by hand.
func TestBoundedWCETSelfLoop(t *testing.T) {
	bd := ir.NewBuilder("selfloop")
	a := bd.AddSymbol("a", 8, 1, false, nil)
	b := bd.AddSymbol("b", 8, 1, false, nil)
	entry, loop, exit := bd.NewBlock("entry"), bd.NewBlock("loop"), bd.NewBlock("exit")
	bd.SetBlock(entry)
	bd.Br(loop)
	bd.SetBlock(loop)
	x := bd.Load(a, ir.ConstVal(0))
	bd.Load(b, ir.ConstVal(0))
	bd.CondBr(ir.RegVal(x), loop, exit)
	bd.SetBlock(exit)
	bd.Ret(ir.ConstVal(0))
	prog := bd.Finish(entry)
	if err := irverify.Verify(prog); err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(prog, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if heads := loopHeads(res.WTO); len(heads) != 1 || heads[0] != loop {
		t.Fatalf("loop heads %v, want [%d]", heads, loop)
	}
	costs := DefaultCosts()
	cost := func(b ir.BlockID) int64 {
		c, _ := blockCost(res, costs, prog.Block(b), nil)
		return c
	}
	if c := cost(loop); c != 2*(costs.BaseLatency+costs.MissPenalty)+costs.BaseLatency {
		t.Fatalf("loop block costs %d, want two missing loads and a branch", c)
	}
	for _, k := range []int64{1, 2, 10} {
		want := cost(entry) + (k+1)*cost(loop) + cost(exit)
		if got := NewWithBounds(res, costs, BoundOptions{DefaultLoopBound: k}).WorstCaseCycles; got != want {
			t.Errorf("bound %d: wcet = %d, want %d", k, got, want)
		}
	}
}
