package core

import (
	"fmt"
	"math/rand"
	"testing"

	"specabsint/internal/cache"
	"specabsint/internal/gen"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/machine"
)

// checkSoundness runs the analysis and the concrete simulator with aligned
// speculation windows and asserts the analysis verdicts over-approximate
// the observed behaviour.
func checkSoundness(t *testing.T, prog *ir.Program, opts Options, simCfg machine.Config, label string) {
	t.Helper()
	res, err := Analyze(prog, opts)
	if err != nil {
		t.Fatalf("%s: analyze: %v", label, err)
	}
	sim, err := machine.New(prog, simCfg)
	if err != nil {
		t.Fatalf("%s: sim: %v", label, err)
	}
	violations := 0
	sim.OnAccess = func(r machine.AccessRecord) {
		if violations > 3 {
			return
		}
		if r.Speculative {
			cls, ok := res.SpecAccess[r.InstrID]
			if !ok {
				violations++
				t.Errorf("%s: instr %d executed speculatively but never lane-analyzed", label, r.InstrID)
				return
			}
			if cls == cache.AlwaysHit && !r.Hit {
				violations++
				t.Errorf("%s: instr %d lane-classified always-hit but missed speculatively", label, r.InstrID)
			}
			if cls == cache.AlwaysMiss && r.Hit {
				violations++
				t.Errorf("%s: instr %d lane-classified always-miss but hit speculatively", label, r.InstrID)
			}
			return
		}
		cls, ok := res.ClassOf(r.InstrID)
		if !ok {
			violations++
			t.Errorf("%s: instr %d executed but not classified", label, r.InstrID)
			return
		}
		if cls == cache.AlwaysHit && !r.Hit {
			violations++
			t.Errorf("%s: instr %d classified always-hit but missed (block %d)", label, r.InstrID, r.Block)
		}
		if cls == cache.AlwaysMiss && r.Hit {
			violations++
			t.Errorf("%s: instr %d classified always-miss but hit (block %d)", label, r.InstrID, r.Block)
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("%s: sim run: %v", label, err)
	}
}

// TestSoundnessRandomPrograms is the oracle property of the paper: every
// verdict of the speculative analysis must hold on concrete executions with
// wrong-path cache pollution, across cache shapes, merge strategies, and
// predictors.
func TestSoundnessRandomPrograms(t *testing.T) {
	caches := []layout.CacheConfig{
		{LineSize: 64, NumSets: 1, Assoc: 4},
		{LineSize: 64, NumSets: 2, Assoc: 2},
		{LineSize: 64, NumSets: 1, Assoc: 8},
		{LineSize: 32, NumSets: 4, Assoc: 2},
		{LineSize: 64, NumSets: 8, Assoc: 4},
	}
	strategies := []Strategy{StrategyJustInTime, StrategyMergeAtRollback, StrategyPerRollbackBlock}
	depths := []int{0, 8, 60, 30}

	// gen.Source reproduces the historical in-package generator byte for
	// byte (pinned by gen's TestDefaultMatchesHistoricalGenerator), so seeds
	// 1..25 still regenerate the original regression programs. The table
	// lengths 5, 3 and 4 are pairwise coprime, so seeds 1..60 run every
	// (cache, strategy, depth) combination once; the join alternates per
	// depth.
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := gen.Source(rng)
		prog := compile(t, src)
		cc := caches[seed%int64(len(caches))]
		strat := strategies[seed%int64(len(strategies))]
		depth := depths[seed%int64(len(depths))]

		opts := DefaultOptions()
		opts.Cache = cc
		opts.Strategy = strat
		opts.DepthMiss = depth
		opts.DepthHit = depth
		opts.RefinedJoin = (seed/4)%2 == 0

		for _, pred := range []machine.Predictor{
			machine.NewTwoBit(),
			machine.NewAdversarial(),
			machine.NewGShare(8),
		} {
			simCfg := machine.Config{
				Cache:        cc,
				Predictor:    pred,
				DepthMiss:    depth,
				DepthHit:     depth,
				WrongPathOOB: true,
				MaxSteps:     5_000_000,
			}
			label := fmt.Sprintf("seed=%d strat=%v depth=%d pred=%s", seed, strat, depth, pred.Name())
			checkSoundness(t, prog, opts, simCfg, label)
		}
		// Maximal pollution: every branch mispredicted.
		simCfg := machine.Config{
			Cache: cc, ForceMispredict: true, WrongPathOOB: true,
			DepthMiss: depth, DepthHit: depth, MaxSteps: 5_000_000,
		}
		checkSoundness(t, prog, opts, simCfg, fmt.Sprintf("seed=%d forced", seed))
	}
}

// TestNonSpeculativeBaselineIsUnsound reproduces the paper's headline
// argument: the classic analysis (Algorithm 1) claims ph[k] always hits, but
// a mis-speculated execution makes it miss.
func TestNonSpeculativeBaselineIsUnsound(t *testing.T) {
	prog := compile(t, fig2Source)
	opts := DefaultOptions()
	opts.Speculative = false
	res, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := machine.New(prog, machine.Config{
		Cache:           layout.PaperConfig(),
		ForceMispredict: true,
		WrongPathOOB:    true,
		DepthMiss:       3,
		DepthHit:        3,
		MaxSteps:        5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	unsound := false
	sim.OnAccess = func(r machine.AccessRecord) {
		if r.Speculative {
			return
		}
		if cls, ok := res.ClassOf(r.InstrID); ok && cls == cache.AlwaysHit && !r.Hit {
			unsound = true
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !unsound {
		t.Error("expected the non-speculative baseline to be violated by the " +
			"speculative execution (the paper's motivating unsoundness)")
	}
}

// TestSpeculativeAnalysisSoundOnFig2 is the positive counterpart: the
// speculation-aware analysis survives the same adversarial execution.
func TestSpeculativeAnalysisSoundOnFig2(t *testing.T) {
	prog := compile(t, fig2Source)
	opts := DefaultOptions()
	opts.DepthMiss = 3
	opts.DepthHit = 3
	simCfg := machine.Config{
		Cache:           layout.PaperConfig(),
		ForceMispredict: true,
		WrongPathOOB:    true,
		DepthMiss:       3,
		DepthHit:        3,
		MaxSteps:        5_000_000,
	}
	checkSoundness(t, prog, opts, simCfg, "fig2-speculative")
}

// TestSoundnessQuantl checks the running example of §6.1 end to end.
func TestSoundnessQuantl(t *testing.T) {
	src := `
	int decis_levl[30] = { 280,576,880,1200,1520,1864,2208,2584,2960,3376,
		3784,4240,4696,5200,5712,6288,6864,7520,8184,8968,9752,10712,11664,
		12896,14120,15840,17560,20456,23352,32767 };
	int quant26bt_pos[31] = { 61,60,59,58,57,56,55,54,53,52,51,50,49,48,47,
		46,45,44,43,42,41,40,39,38,37,36,35,34,33,32,32 };
	int quant26bt_neg[31] = { 63,62,31,30,29,28,27,26,25,24,23,22,21,20,19,
		18,17,16,15,14,13,12,11,10,9,8,7,6,5,4,4 };
	int my_abs(int x) { if (x < 0) { return -x; } return x; }
	int quantl(int el, int detl) {
		int ril; int mil;
		long wd; long decis;
		wd = my_abs(el);
		for (mil = 0; mil < 30; mil++) {
			decis = (decis_levl[mil] * (long)detl) >> 15;
			if (wd <= decis) break;
		}
		if (el >= 0) { ril = quant26bt_pos[mil]; }
		else { ril = quant26bt_neg[mil]; }
		return ril;
	}
	int main(int el) { return quantl(el - 3000, 32767); }`
	prog := compile(t, src)
	for _, depth := range []int{0, 10, 100} {
		opts := DefaultOptions()
		opts.Cache = layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 8}
		opts.DepthMiss = depth
		opts.DepthHit = depth
		simCfg := machine.Config{
			Cache:           opts.Cache,
			ForceMispredict: true,
			WrongPathOOB:    true,
			DepthMiss:       depth,
			DepthHit:        depth,
			MaxSteps:        5_000_000,
		}
		checkSoundness(t, prog, opts, simCfg, fmt.Sprintf("quantl-depth-%d", depth))
	}
}
