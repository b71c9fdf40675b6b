package core

import (
	"fmt"
	"math/rand"
	"testing"

	"specabsint/internal/cache"
	"specabsint/internal/gen"
	"specabsint/internal/layout"
	"specabsint/internal/machine"
)

func icacheCfg(lines int) layout.CacheConfig {
	return layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: lines}
}

func TestICacheStraightLineAllClassified(t *testing.T) {
	prog := compile(t, `
	int a[8];
	int main() {
		int s = 0;
		for (int i = 0; i < 8; i++) { s += a[i]; }
		return s;
	}`)
	opts := DefaultOptions()
	opts.Cache = icacheCfg(64)
	res, err := AnalyzeInstructionCache(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every instruction is an access in the i-cache analysis.
	if res.AccessCount() != prog.InstrCount() {
		t.Errorf("classified %d fetches, want %d", res.AccessCount(), prog.InstrCount())
	}
	// With a big i-cache, only first-touch fetches miss: the miss count is
	// at most the number of code blocks.
	codeBlocks := (prog.InstrCount()*layout.InstrBytes + 63) / 64
	if res.MissCount() > codeBlocks {
		t.Errorf("misses %d exceed code blocks %d in an oversized cache",
			res.MissCount(), codeBlocks)
	}
}

func TestICacheLoopBodyBecomesHot(t *testing.T) {
	// A loop kept intact: the second iteration onward re-fetches the same
	// code blocks, so the analysis must prove most fetches hits eventually.
	prog := compile(t, `
	int acc;
	int main(int n) {
		int i = 0;
		while (i < n) { acc = acc + i; i = i + 1; }
		return acc;
	}`)
	opts := DefaultOptions()
	opts.Cache = icacheCfg(64)
	opts.Speculative = false
	res, err := AnalyzeInstructionCache(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitCount() == 0 {
		t.Error("loop code should have guaranteed-hit fetches")
	}
}

func TestICacheSpeculationAddsFetchMisses(t *testing.T) {
	// A tiny i-cache and a branch whose arms are large: the wrong-path arm
	// evicts code the normal path relies on.
	var src = `
	int a; int b; int acc;
	int main(int n) {
		int i = 0;
		while (i < n) {
			if (a > 0) {
				` + bigArm("acc = acc + b;", 40) + `
			} else {
				` + bigArm("acc = acc - b;", 40) + `
			}
			i = i + 1;
		}
		return acc;
	}`
	prog := compile(t, src)
	opts := DefaultOptions()
	opts.Cache = icacheCfg(8)
	spec, err := AnalyzeInstructionCache(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Speculative = false
	base, err := AnalyzeInstructionCache(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if spec.MissCount() < base.MissCount() {
		t.Errorf("speculative i-cache misses %d < baseline %d",
			spec.MissCount(), base.MissCount())
	}
	if spec.SpecMissCount() == 0 {
		t.Error("wrong-path fetches should include potential misses")
	}
}

func bigArm(stmt string, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += stmt + "\n"
	}
	return out
}

// TestICacheSoundness drives the i-cache analysis against the simulator's
// concrete fetch stream on random programs.
func TestICacheSoundness(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := gen.Source(rng)
		prog := compile(t, src)
		cc := icacheCfg(4 + int(seed%3)*4)
		depth := []int{0, 10, 50}[seed%3]

		opts := DefaultOptions()
		opts.Cache = cc
		opts.DepthMiss = depth
		opts.DepthHit = depth
		res, err := AnalyzeInstructionCache(prog, opts)
		if err != nil {
			t.Fatal(err)
		}

		simCfg := machine.Config{
			Cache:           layout.PaperConfig(),
			ICache:          &cc,
			ForceMispredict: true,
			WrongPathOOB:    true,
			DepthMiss:       depth,
			DepthHit:        depth,
			MaxSteps:        5_000_000,
		}
		sim, err := machine.New(prog, simCfg)
		if err != nil {
			t.Fatal(err)
		}
		violations := 0
		sim.OnFetch = func(r machine.AccessRecord) {
			if violations > 3 {
				return
			}
			label := fmt.Sprintf("seed=%d depth=%d", seed, depth)
			if r.Speculative {
				cls, ok := res.SpecAccess[r.InstrID]
				if !ok {
					violations++
					t.Errorf("%s: fetch of instr %d speculated but never lane-analyzed", label, r.InstrID)
					return
				}
				if cls == cache.AlwaysHit && !r.Hit {
					violations++
					t.Errorf("%s: wrong-path fetch of instr %d classified always-hit but missed", label, r.InstrID)
				}
				return
			}
			cls, ok := res.ClassOf(r.InstrID)
			if !ok {
				violations++
				t.Errorf("%s: fetch of instr %d executed but unclassified", label, r.InstrID)
				return
			}
			if cls == cache.AlwaysHit && !r.Hit {
				violations++
				t.Errorf("%s: fetch of instr %d classified always-hit but missed (block %d)",
					label, r.InstrID, r.Block)
			}
			if cls == cache.AlwaysMiss && r.Hit {
				violations++
				t.Errorf("%s: fetch of instr %d classified always-miss but hit", label, r.InstrID)
			}
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestICacheMachineCounters(t *testing.T) {
	prog := compile(t, `
	int a;
	int main(int n) {
		int i = 0;
		while (i < 20) { a = a + i; i = i + 1; }
		return a;
	}`)
	ic := icacheCfg(32)
	cfg := machine.DefaultConfig()
	cfg.ICache = &ic
	stats, err := machine.RunProgram(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IFetchHits == 0 || stats.IFetchMisses == 0 {
		t.Errorf("fetch counters: hits=%d misses=%d", stats.IFetchHits, stats.IFetchMisses)
	}
	if stats.IFetchHits+stats.IFetchMisses != stats.Instructions {
		t.Errorf("fetches %d != instructions %d",
			stats.IFetchHits+stats.IFetchMisses, stats.Instructions)
	}
}

// TestICacheRegisterOnlyArmsAreSpeculated pins the i-cache lane budgets to
// fetches, not data accesses: the arms below touch no memory, yet every
// wrong-path instruction in them is a fetch that can evict code. Uncertainty
// focusing must therefore leave the verdicts exactly as the eager ablation
// run computes them, and every wrong-path fetch the simulator performs under
// forced misprediction must have a lane verdict.
func TestICacheRegisterOnlyArmsAreSpeculated(t *testing.T) {
	prog := compile(t, `
	int y;
	int main(int x) {
		reg int r;
		r = 0;
		if (x > 0) {
			`+bigArm("r = r + 3;", 10)+`
		} else {
			`+bigArm("r = r - 5;", 10)+`
		}
		return y + r;
	}`)
	cc := icacheCfg(2)
	for _, depth := range []int{4, 10, 50} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Cache = cc
			opts.DepthMiss, opts.DepthHit = depth, depth
			res, err := AnalyzeInstructionCache(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.DisableUncertainty = true
			ref, err := AnalyzeInstructionCache(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.SpecAccess) == 0 {
				t.Fatal("reference run has no wrong-path verdicts")
			}
			if got, want := fmt.Sprint(res.SpecAccess), fmt.Sprint(ref.SpecAccess); got != want {
				t.Errorf("wrong-path verdicts differ from the DisableUncertainty run (%d lanes skipped):\n got %s\nwant %s",
					res.Stats.LanesSkippedCertain, got, want)
			}
			for id, a := range ref.Access {
				if got := res.Access[id].Class; got != a.Class {
					t.Errorf("fetch of instr %d classified %v, DisableUncertainty run says %v", id, got, a.Class)
				}
			}

			sim, err := machine.New(prog, machine.Config{
				Cache:           layout.PaperConfig(),
				ICache:          &cc,
				ForceMispredict: true,
				DepthMiss:       depth,
				DepthHit:        depth,
				MaxSteps:        1_000_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			sim.OnFetch = func(r machine.AccessRecord) {
				if !r.Speculative {
					if cls, _ := res.ClassOf(r.InstrID); cls == cache.AlwaysMiss && r.Hit {
						t.Errorf("fetch of instr %d classified always-miss but hit", r.InstrID)
					}
					return
				}
				if _, ok := res.SpecAccess[r.InstrID]; !ok {
					t.Errorf("wrong-path fetch of instr %d has no verdict", r.InstrID)
				}
			}
			if err := sim.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
