package core

import (
	"fmt"
	"testing"

	"specabsint/internal/cache"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/machine"
)

// loopReuse re-reads the same small table every iteration of a
// data-dependent loop (which the front end cannot unroll).
const loopReuse = `
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

func TestPersistenceUpgradesLoopAccesses(t *testing.T) {
	prog := compile(t, loopReuse)
	opts := DefaultOptions()
	opts.Cache = layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 8}

	must, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	persist, err := AnalyzePersistence(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := loadsOf(prog, "tbl")[0]
	mustCls, _ := must.ClassOf(tbl.ID)
	persistCls, _ := persist.ClassOf(tbl.ID)
	if mustCls == cache.AlwaysHit {
		t.Fatalf("must analysis proved the cold-start access always-hit?")
	}
	if persistCls != cache.AlwaysHit {
		t.Errorf("table access not persistent (%v): once loaded, nothing evicts it", persistCls)
	}
}

func TestPersistenceRespectsCapacity(t *testing.T) {
	// The loop's working set exceeds the cache: nothing is persistent.
	src := `
	int tbl[64];
	int acc;
	int main(int n) {
		int i = 0;
		while (i < n) {
			acc = acc + tbl[i & 63];
			i = i + 1;
		}
		return acc;
	}`
	prog := compile(t, src)
	opts := DefaultOptions()
	opts.Cache = layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 3}
	persist, err := AnalyzePersistence(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := loadsOf(prog, "tbl")[0]
	if cls, _ := persist.ClassOf(tbl.ID); cls == cache.AlwaysHit {
		t.Error("access persistent despite the working set exceeding the cache")
	}
}

func TestPersistenceBrokenBySpeculation(t *testing.T) {
	// Architecturally the loop touches five lines (x, a, acc, i, n) — x is
	// persistent in a 6-line cache. But the bounds-guarded access reads far
	// out of bounds on mis-speculated paths, sweeping the filler region and
	// evicting x: only wrong paths supply the eviction pressure.
	src := `
	int x;
	int a[4];
	int filler[1024];
	int acc;
	int main(int n) {
		int i = 0;
		acc = x;
		while (i < n) {
			if (i >= 0 && i < 4) { acc = acc + a[i]; }
			acc = acc + x;
			i = i + 1;
		}
		return acc;
	}`
	prog := compile(t, src)
	opts := DefaultOptions()
	opts.Cache = layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 6}

	base := opts
	base.Speculative = false
	nonspec, err := AnalyzePersistence(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := AnalyzePersistence(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	xLoads := loadsOf(prog, "x")
	final := xLoads[len(xLoads)-1]
	if cls, _ := nonspec.ClassOf(final.ID); cls != cache.AlwaysHit {
		t.Fatalf("non-speculative: x not persistent (%v)", cls)
	}
	if cls, _ := spec.ClassOf(final.ID); cls == cache.AlwaysHit {
		t.Error("speculative wrong paths can evict x; persistence must not survive")
	}
}

// TestPersistenceSoundConcretely: an access classified persistent misses at
// most once in any concrete run, including adversarially mis-speculated
// ones. It checks loopReuse on a one-set cache under forced misprediction,
// and ocb as the corpus digest compiles it, on the paper's cache, under
// forced misprediction and four predictors, for both client modes.
func TestPersistenceSoundConcretely(t *testing.T) {
	prog := compile(t, loopReuse)
	opts := DefaultOptions()
	opts.Cache = layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 8}
	opts.DepthMiss, opts.DepthHit = 40, 40
	checkPersistenceSound(t, "loopReuse", prog, opts, machine.Config{
		Cache:           opts.Cache,
		ForceMispredict: true,
		WrongPathOOB:    true,
		DepthMiss:       40,
		DepthHit:        40,
		MaxSteps:        5_000_000,
	})

	prog = compileWithPasses(t, "ocb", corpusSource(t, "ocb"))
	opts = DefaultOptions()
	for mode := range int64(2) {
		// A nil predictor stands for forced misprediction of every branch.
		for _, pred := range []machine.Predictor{nil, machine.NewTwoBit(), machine.NewGShare(8), machine.NewAdversarial(), machine.AlwaysTaken{}} {
			sim := machine.Config{
				Cache:           opts.Cache,
				Predictor:       pred,
				ForceMispredict: pred == nil,
				WrongPathOOB:    true,
				DepthMiss:       opts.DepthMiss,
				DepthHit:        opts.DepthHit,
				MaxSteps:        5_000_000,
				Inputs:          map[string]int64{"client_mode": mode, "sc_key": 37},
			}
			label := fmt.Sprintf("ocb mode=%d forced", mode)
			if pred != nil {
				label = fmt.Sprintf("ocb mode=%d %s", mode, pred.Name())
			}
			checkPersistenceSound(t, label, prog, opts, sim)
		}
	}
}

// checkPersistenceSound runs the persistence analysis of prog and one
// concrete run, and fails the test for every access classified persistent
// that missed more often than it has candidate blocks: each candidate line
// can cold-miss once.
func checkPersistenceSound(t *testing.T, label string, prog *ir.Program, opts Options, simCfg machine.Config) {
	t.Helper()
	persist, err := AnalyzePersistence(prog, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sim, err := machine.New(prog, simCfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	missCount := map[int]int{}
	sim.OnAccess = func(r machine.AccessRecord) {
		if !r.Speculative && !r.Hit {
			missCount[r.InstrID]++
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for id, info := range persist.Access {
		if info.Class == cache.AlwaysHit && missCount[id] > info.Acc.Count {
			t.Errorf("%s: instr %d classified persistent but missed %d times (candidates %d)",
				label, id, missCount[id], info.Acc.Count)
		}
	}
}
