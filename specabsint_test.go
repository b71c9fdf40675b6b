package specabsint

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/layout"
)

const apiProgram = `
int table[256];
int l1[16]; int l2[16];
char p;
secret int key;
int main() {
	reg int i; reg int tmp;
	tmp = 0;
	for (i = 0; i < 256; i += 16) { tmp = tmp + table[i]; }
	if (p == 0) { tmp = tmp + l1[0]; }
	else { tmp = tmp - l2[0]; }
	return tmp + table[key & 255];
}`

func tightConfig() Config {
	cfg := DefaultConfig()
	cfg.Cache = CacheConfig{LineSize: 64, NumSets: 1, Assoc: 19}
	return cfg
}

func TestCompileError(t *testing.T) {
	if _, err := CompileOpts("int main() { return oops; }"); err == nil {
		t.Fatal("expected a compile error")
	} else if !strings.Contains(err.Error(), "oops") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestAnalyzeSpeculativeVsBaseline(t *testing.T) {
	prog, err := CompileOpts(apiProgram)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := AnalyzeContext(context.Background(), prog, tightConfig().Options()...)
	if err != nil {
		t.Fatal(err)
	}
	base, err := AnalyzeContext(context.Background(), prog, append(tightConfig().Options(), WithSpeculation(false))...)
	if err != nil {
		t.Fatal(err)
	}
	if !spec.LeakDetected {
		t.Error("speculative analysis should find the leak")
	}
	if base.LeakDetected {
		t.Error("baseline should not find a leak")
	}
	if spec.Misses <= base.Misses {
		t.Errorf("spec misses %d should exceed baseline %d", spec.Misses, base.Misses)
	}
	if len(spec.Accesses) != len(base.Accesses) {
		t.Errorf("access counts differ: %d vs %d", len(spec.Accesses), len(base.Accesses))
	}
	if spec.WCET.WorstCaseCycles <= 0 {
		t.Error("acyclic program should have a finite WCET bound")
	}
}

func TestReportAccessesSorted(t *testing.T) {
	prog, err := CompileOpts(apiProgram)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeContext(context.Background(), prog, tightConfig().Options()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Accesses) == 0 {
		t.Fatal("no accesses reported")
	}
	seenSpec := false
	for _, a := range rep.Accesses {
		if a.Symbol == "" {
			t.Error("access without symbol name")
		}
		if a.SpecReached {
			seenSpec = true
		}
	}
	if !seenSpec {
		t.Error("no access was reached speculatively despite a branch")
	}
}

func TestSimulateMatchesAnalysisDirection(t *testing.T) {
	prog, err := CompileOpts(apiProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tightConfig()
	spec, err := Simulate(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Speculative = false
	base, err := Simulate(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong-path execution may *prefetch* for the right path (fewer
	// architectural misses) or pollute (more); counting the wrong-path
	// traffic, the speculative run always does at least as much memory work.
	if spec.Misses+spec.SpecMisses < base.Misses {
		t.Errorf("speculative total misses %d+%d < baseline %d",
			spec.Misses, spec.SpecMisses, base.Misses)
	}
	if spec.Rollbacks == 0 {
		t.Error("forced misprediction should cause rollbacks")
	}
	if base.Mispredicts != 0 {
		t.Errorf("baseline run should not mispredict, got %d", base.Mispredicts)
	}
}

// TestSimulateHugeNumSets: the simulated cache allocates only the sets the
// program's blocks map to, so a cache of 2^40 sets simulates Fig. 2 within a
// megabyte, and like a cache with one set more than Fig. 2 has blocks. A
// set list per cache set would take 24 TiB.
func TestSimulateHugeNumSets(t *testing.T) {
	prog, err := CompileOpts(bench.Fig2Program(-1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cache = CacheConfig{LineSize: 64, NumSets: 1 << 40, Assoc: 8}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	huge, err := Simulate(prog, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("simulating Fig. 2 at 2^40 sets allocated %d bytes, want under 1 MB", got)
	}
	l, err := layout.New(prog.Internal(), cfg.Cache)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache.NumSets = l.NumBlocks + 1
	small, err := Simulate(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if huge.Hits != small.Hits || huge.Misses != small.Misses ||
		huge.SpecHits != small.SpecHits || huge.SpecMisses != small.SpecMisses {
		t.Errorf("2^40 sets: %d hits, %d misses, %d spec hits, %d spec misses; %d sets: %d, %d, %d, %d",
			huge.Hits, huge.Misses, huge.SpecHits, huge.SpecMisses,
			cfg.Cache.NumSets, small.Hits, small.Misses, small.SpecHits, small.SpecMisses)
	}
	if huge.Misses == 0 || huge.Hits == 0 {
		t.Errorf("2^40 sets: %d hits and %d misses, want both", huge.Hits, huge.Misses)
	}
}

func TestIRListing(t *testing.T) {
	prog, err := CompileOpts("int x; int main() { return x; }")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.IR(), "load x[0]") {
		t.Errorf("IR listing missing load:\n%s", prog.IR())
	}
	if prog.Internal() == nil {
		t.Error("Internal() returned nil")
	}
}

func TestPaperCacheConstants(t *testing.T) {
	c := PaperCache()
	if c.Lines() != 512 || c.LineSize != 64 {
		t.Errorf("paper cache = %v", c)
	}
	cfg := DefaultConfig()
	if cfg.DepthMiss != 200 || cfg.DepthHit != 20 {
		t.Errorf("default depths = %d/%d, want 200/20", cfg.DepthMiss, cfg.DepthHit)
	}
	if cfg.Strategy != JustInTime {
		t.Errorf("default strategy = %v, want JIT", cfg.Strategy)
	}
}
