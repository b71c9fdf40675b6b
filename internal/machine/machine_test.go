package machine

import (
	"fmt"
	"testing"

	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/lower"
	"specabsint/internal/source"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	ast, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := lower.Lower(ast, lower.DefaultOptions())
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

func TestCacheSimLRU(t *testing.T) {
	c := NewCacheSim(layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 3}, 6)
	if c.Access(1) {
		t.Error("first access should miss")
	}
	if !c.Access(1) {
		t.Error("second access should hit")
	}
	c.Access(2)
	c.Access(3) // cache: 3,2,1
	if c.AgeOf(3) != 1 || c.AgeOf(2) != 2 || c.AgeOf(1) != 3 {
		t.Errorf("ages: %d %d %d", c.AgeOf(3), c.AgeOf(2), c.AgeOf(1))
	}
	c.Access(4) // evicts 1
	if c.Contains(1) {
		t.Error("LRU block should be evicted")
	}
	if !c.Contains(2) || !c.Contains(3) || !c.Contains(4) {
		t.Error("younger blocks must survive")
	}
	// Re-access moves to front and prevents eviction.
	c.Access(2) // 2,4,3
	c.Access(5) // evicts 3
	if c.Contains(3) {
		t.Error("3 should be evicted")
	}
	if !c.Contains(2) {
		t.Error("refreshed block must survive")
	}
}

func TestCacheSimSets(t *testing.T) {
	c := NewCacheSim(layout.CacheConfig{LineSize: 64, NumSets: 2, Assoc: 1}, 3)
	c.Access(0) // set 0
	c.Access(1) // set 1
	if !c.Contains(0) || !c.Contains(1) {
		t.Error("different sets must not conflict")
	}
	c.Access(2) // set 0, evicts 0
	if c.Contains(0) {
		t.Error("same-set block should be evicted with assoc 1")
	}
	if !c.Contains(1) {
		t.Error("other set must be untouched")
	}
	if c.Occupancy() != 2 {
		t.Errorf("occupancy = %d, want 2", c.Occupancy())
	}
}

func TestTwoBitPredictor(t *testing.T) {
	p := NewTwoBit()
	if !p.Predict(1) {
		t.Error("initial state should be weakly taken")
	}
	p.Update(1, false)
	p.Update(1, false)
	if p.Predict(1) {
		t.Error("two not-taken outcomes should flip the prediction")
	}
	p.Update(1, true)
	if p.Predict(1) {
		t.Error("one taken from strong not-taken should stay not-taken")
	}
	p.Update(1, true)
	if !p.Predict(1) {
		t.Error("two takens should flip back")
	}
}

func TestGSharePredictorLearnsPattern(t *testing.T) {
	p := NewGShare(10)
	// Alternating pattern on one branch: gshare with history should learn
	// it almost perfectly after warm-up.
	correct := 0
	taken := false
	for i := 0; i < 400; i++ {
		taken = !taken
		if p.Predict(42) == taken {
			correct++
		}
		p.Update(42, taken)
	}
	if correct < 300 {
		t.Errorf("gshare learned %d/400 of an alternating pattern", correct)
	}
}

func TestAdversarialPredictor(t *testing.T) {
	p := NewAdversarial()
	p.Update(3, true)
	if p.Predict(3) {
		t.Error("adversarial must predict the opposite of the last outcome")
	}
}

func TestSimulatorStraightLine(t *testing.T) {
	prog := compile(t, `
	int a[32];
	int main() {
		int s = 0;
		for (int i = 0; i < 32; i++) { s += a[i]; }
		return s;
	}`)
	cfg := DefaultConfig()
	cfg.Cache = layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 8}
	stats, err := RunProgram(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 32 ints = 2 blocks of a; plus scalar s and i: all touched repeatedly.
	if stats.Misses < 3 {
		t.Errorf("misses = %d, want >= 3 (cold blocks)", stats.Misses)
	}
	if stats.Hits == 0 {
		t.Error("expected hits on warm scalars")
	}
	if stats.Branches != 0 {
		t.Errorf("unrolled program has %d branches", stats.Branches)
	}
}

// fig2Src builds the paper's Fig. 2 program with the secret k fixed to a
// concrete value.
func fig2Src(k int) string {
	return fmt.Sprintf(`
	char ph[64*510];
	char l1[64]; char l2[64]; char p;
	int main() {
		reg int i; reg int tmp;
		reg int k;
		k = %d;
		for (i = 0; i < 64*510; i += 64) { tmp = ph[i]; }
		if (p == 0) { tmp = l1[0]; }
		else { tmp = l2[0]; }
		tmp = ph[k];
		return tmp;
	}`, k)
}

func TestFig3NonSpeculativeTrace(t *testing.T) {
	// Left-hand side of Fig. 3: 512 misses + 1 hit.
	prog := compile(t, fig2Src(0))
	cfg := DefaultConfig()
	cfg.DepthMiss = 0 // speculation disabled
	cfg.DepthHit = 0
	stats, err := RunProgram(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Misses != 512 {
		t.Errorf("misses = %d, want 512", stats.Misses)
	}
	if stats.Hits != 1 {
		t.Errorf("hits = %d, want 1 (ph[k])", stats.Hits)
	}
}

func TestFig3SpeculativeTrace(t *testing.T) {
	// Right-hand side of Fig. 3: mis-speculation loads the other branch's
	// line too; 513 observable misses plus 1 speculative miss = 514.
	prog := compile(t, fig2Src(0))
	cfg := DefaultConfig()
	cfg.ForceMispredict = true
	cfg.DepthMiss = 3 // the branch arm: load + mov + br (rollback boundary)
	cfg.DepthHit = 3
	stats, err := RunProgram(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Misses != 513 {
		t.Errorf("architectural misses = %d, want 513", stats.Misses)
	}
	if stats.SpecMisses != 1 {
		t.Errorf("speculative misses = %d, want 1", stats.SpecMisses)
	}
	if stats.Hits != 0 {
		t.Errorf("hits = %d, want 0 (ph[k] evicted by wrong path)", stats.Hits)
	}
	if stats.Rollbacks != 1 {
		t.Errorf("rollbacks = %d, want 1", stats.Rollbacks)
	}
}

func TestFig2SecretDependentTiming(t *testing.T) {
	// The execution time depends on the secret k only under speculation:
	// k=0 maps to the evicted ph line (miss), a large k maps to a surviving
	// line (hit). Without speculation both hit — that is the side channel.
	run := func(k int, spec bool) Stats {
		prog := compile(t, fig2Src(k))
		cfg := DefaultConfig()
		if spec {
			cfg.ForceMispredict = true
			cfg.DepthMiss = 3
			cfg.DepthHit = 3
		} else {
			cfg.DepthMiss = 0
			cfg.DepthHit = 0
		}
		stats, err := RunProgram(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	specK0, specKbig := run(0, true), run(64*300, true)
	if specK0.Misses == specKbig.Misses {
		t.Errorf("speculative misses identical (%d) for k=0 and k=big: no leak observed",
			specK0.Misses)
	}
	nonK0, nonKbig := run(0, false), run(64*300, false)
	if nonK0.Misses != nonKbig.Misses {
		t.Errorf("non-speculative misses differ (%d vs %d): leak without speculation?",
			nonK0.Misses, nonKbig.Misses)
	}
}

func TestSpeculativeRollbackPreservesSemantics(t *testing.T) {
	// Wrong-path execution must not change the architectural result.
	src := `
	int acc; int tbl[16];
	int main(int n) {
		int i = 0;
		while (i < 13) {
			if (tbl[i & 15] == 0) { acc = acc + 2; }
			else { acc = acc - 1; }
			i = i + 1;
		}
		return acc;
	}`
	prog := compile(t, src)
	want := int64(26)
	for _, cfg := range []Config{
		{Cache: layout.PaperConfig(), DepthMiss: 0, DepthHit: 0},
		{Cache: layout.PaperConfig(), ForceMispredict: true, DepthMiss: 50, DepthHit: 10},
		{Cache: layout.PaperConfig(), Predictor: NewGShare(8), DepthMiss: 200, DepthHit: 20},
		{Cache: layout.PaperConfig(), Predictor: NewAdversarial(), DepthMiss: 200, DepthHit: 20},
	} {
		stats, err := RunProgram(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Ret != want {
			t.Errorf("cfg %+v: result %d, want %d (rollback broke semantics)",
				cfg, stats.Ret, want)
		}
	}
}

func TestWrongPathFaultSquashed(t *testing.T) {
	// The wrong path divides by zero / runs out of bounds; the simulation
	// must squash it and keep running.
	src := `
	int tbl[4]; int z;
	int main(int x) {
		reg int r;
		r = 0;
		if (z != 0) { r = tbl[100 / z]; }
		return r;
	}`
	prog := compile(t, src)
	cfg := DefaultConfig()
	cfg.ForceMispredict = true
	stats, err := RunProgram(prog, cfg)
	if err != nil {
		t.Fatalf("wrong-path fault leaked: %v", err)
	}
	if stats.Ret != 0 {
		t.Errorf("result = %d, want 0", stats.Ret)
	}
}

func TestMispredictsReducedByTraining(t *testing.T) {
	// A heavily biased branch: the 2-bit predictor should mispredict far
	// less than the adversarial predictor.
	src := `
	int acc; int t[8];
	int main() {
		int i = 0;
		while (i < 100) {
			if (i < 99) { acc = acc + t[i & 7]; }
			i = i + 1;
		}
		return acc;
	}`
	prog := compile(t, src)
	run := func(p Predictor) Stats {
		cfg := DefaultConfig()
		cfg.Predictor = p
		stats, err := RunProgram(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	trained := run(NewTwoBit())
	adversarial := run(NewAdversarial())
	if trained.Mispredicts >= adversarial.Mispredicts {
		t.Errorf("2bit mispredicts %d >= adversarial %d",
			trained.Mispredicts, adversarial.Mispredicts)
	}
}

func TestOnAccessHook(t *testing.T) {
	prog := compile(t, fig2Src(0))
	sim, err := New(prog, Config{
		Cache: layout.PaperConfig(), ForceMispredict: true,
		DepthMiss: 3, DepthHit: 3, MaxSteps: 1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var arch, spec int
	sim.OnAccess = func(r AccessRecord) {
		if r.Speculative {
			spec++
		} else {
			arch++
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if arch != 513 {
		t.Errorf("architectural records = %d, want 513", arch)
	}
	if spec != 1 {
		t.Errorf("speculative records = %d, want 1", spec)
	}
}

func TestCyclesAccounting(t *testing.T) {
	prog := compile(t, `int a; int main() { int x = a; int y = a; return x + y; }`)
	cfg := DefaultConfig()
	cfg.DepthMiss, cfg.DepthHit = 0, 0
	stats, err := RunProgram(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantMin := stats.Instructions*BaseLatency + stats.Misses*MissPenalty + stats.Hits*HitLatency
	if stats.Cycles != wantMin {
		t.Errorf("cycles = %d, want %d", stats.Cycles, wantMin)
	}
}

// TestConfigInputs: named scalars (main parameters, secrets) are preloaded
// before execution, so one program replays across concrete input vectors.
func TestConfigInputs(t *testing.T) {
	prog := compile(t, `
	secret int sec;
	int main(int inp) {
		if (inp > 3) { return 100 + sec; }
		return sec;
	}`)
	run := func(inputs map[string]int64) int64 {
		cfg := DefaultConfig()
		cfg.DepthMiss, cfg.DepthHit = 0, 0
		cfg.Inputs = inputs
		stats, err := RunProgram(prog, cfg)
		if err != nil {
			t.Fatalf("run %v: %v", inputs, err)
		}
		return stats.Ret
	}
	if got := run(nil); got != 0 {
		t.Errorf("zero inputs: ret = %d, want 0", got)
	}
	if got := run(map[string]int64{"inp": 5, "sec": 7}); got != 107 {
		t.Errorf("inp=5 sec=7: ret = %d, want 107", got)
	}
	if got := run(map[string]int64{"inp": 1, "sec": 9}); got != 9 {
		t.Errorf("inp=1 sec=9: ret = %d, want 9", got)
	}

	cfg := DefaultConfig()
	cfg.Inputs = map[string]int64{"nosuch": 1}
	if _, err := RunProgram(prog, cfg); err == nil {
		t.Error("unknown input symbol: want error")
	}
}

// TestFenceSquashesWrongPath puts a fence at the head of the mispredicted
// arm: the wrong path must stop there, count the fence in SpecFences, and
// perform no access past it. The unfenced twin shows the same wrong path
// does reach memory, so the check is not vacuous.
func TestFenceSquashesWrongPath(t *testing.T) {
	const src = `
char pub[16];
char probe[256];
secret int k;
int main() {
	reg int t;
	reg int v;
	t = 0;
	if (k < 16) {
		%s
		v = pub[k & 15];
		t = probe[v & 255];
	}
	return t;
}
`
	run := func(fence string) (Stats, int) {
		t.Helper()
		cfg := DefaultConfig()
		cfg.ForceMispredict = true
		cfg.Inputs = map[string]int64{"k": 200}
		sim, err := New(compile(t, fmt.Sprintf(src, fence)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec := 0
		sim.OnAccess = func(r AccessRecord) {
			if r.Speculative {
				spec++
			}
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.Stats, spec
	}
	fenced, spec := run("fence;")
	if fenced.Mispredicts != 1 || fenced.SpecFences != 1 {
		t.Fatalf("want one mispredict squashed by one fence, got %+v", fenced)
	}
	if spec != 0 || fenced.SpecHits+fenced.SpecMisses != 0 || fenced.SpecInstructions != 0 {
		t.Errorf("wrong path ran past the fence: %d accesses, stats %+v", spec, fenced)
	}
	open, spec := run("")
	if open.SpecFences != 0 || spec == 0 {
		t.Errorf("unfenced wrong path: %d accesses, stats %+v; want accesses and no fence", spec, open)
	}
}

// TestICacheFetchStream records the fetch stream with an instruction cache
// simulated: every executed instruction, architectural or wrong-path, fires
// OnFetch once, and the records agree with the fetch counters.
func TestICacheFetchStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ForceMispredict = true
	cfg.ICache = &layout.CacheConfig{LineSize: 64, NumSets: 4, Assoc: 2}
	sim, err := New(compile(t, fig2Src(64*3)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var arch, spec int64
	sim.OnFetch = func(r AccessRecord) {
		if r.Speculative {
			spec++
		} else {
			arch++
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := sim.Stats
	if arch == 0 || spec == 0 {
		t.Fatalf("fetch stream has %d architectural and %d wrong-path records; want both", arch, spec)
	}
	if arch != st.IFetchHits+st.IFetchMisses || arch != st.Instructions {
		t.Errorf("architectural fetches %d, counters %d+%d, instructions %d", arch, st.IFetchHits, st.IFetchMisses, st.Instructions)
	}
	if spec != st.SpecIFetchHits+st.SpecIFetchMisses || spec != st.SpecInstructions {
		t.Errorf("wrong-path fetches %d, counters %d+%d, wrong-path instructions %d", spec, st.SpecIFetchHits, st.SpecIFetchMisses, st.SpecInstructions)
	}
}

// TestSecretDivergence replays a probe of a preloaded table at a secret
// index, with the secret declared as a register and as a memory scalar:
// secrets on different lines tell the probe's hit apart, secrets on one
// line do not.
func TestSecretDivergence(t *testing.T) {
	for _, decl := range []string{"secret reg int k;", "secret int k;"} {
		t.Run(decl, func(t *testing.T) {
			prog := compile(t, "char ph[512];\n"+decl+`
int main() {
	reg int t;
	t = ph[0];
	t = ph[k & 511];
	return t;
}`)
			if !HasSecretInputs(prog) {
				t.Fatal("HasSecretInputs = false")
			}
			probe := -1
			for _, b := range prog.Blocks {
				for _, in := range b.Instrs {
					if in.Op == ir.OpLoad && prog.Symbol(in.Sym).Name == "ph" {
						probe = in.ID
					}
				}
			}
			cfg := Config{Cache: layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 4}}
			for _, tc := range []struct {
				a, b int64
				want int
			}{{0, 100, 1}, {0, 1, 0}} {
				got, err := SecretDivergence(prog, cfg, tc.a, tc.b, []int{probe})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != tc.want || (tc.want == 1 && got[0] != probe) {
					t.Errorf("secrets %d/%d: diverged %v, want %d access(es) (probe %d)", tc.a, tc.b, got, tc.want, probe)
				}
			}
		})
	}
	if HasSecretInputs(compile(t, "char ph[64];\nint main() { return ph[0]; }")) {
		t.Error("HasSecretInputs = true on a program without secrets")
	}
}
