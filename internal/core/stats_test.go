package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"specabsint/internal/bench"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/obs"
)

// compileBench compiles one corpus kernel (raw code; the caller picks
// WCET-kind kernels that already have a main).
func compileBench(t *testing.T, name string) *ir.Program {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("kernel %q not in corpus", name)
	}
	prog, err := bench.Compile(b.Code, 0)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return prog
}

// setAssocConfig is a 64-set × 8-way geometry: the set-associative
// counterpart of the paper's fully associative cache, as the 64x8 corpus
// digest golden pins it.
var setAssocConfig = layout.CacheConfig{LineSize: 64, NumSets: 64, Assoc: 8}

// requireSameResult asserts that two analyses agree on everything a caller
// can observe: classification maps and per-block normal states.
func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(got.Access) != len(want.Access) {
		t.Fatalf("%s: %d classified accesses, want %d", label, len(got.Access), len(want.Access))
	}
	for id, w := range want.Access {
		g, ok := got.Access[id]
		if !ok || g.Class != w.Class {
			t.Fatalf("%s: instr %d classified %v, want %v", label, id, g.Class, w.Class)
		}
	}
	if len(got.SpecAccess) != len(want.SpecAccess) {
		t.Fatalf("%s: %d spec accesses, want %d", label, len(got.SpecAccess), len(want.SpecAccess))
	}
	for id, w := range want.SpecAccess {
		if g, ok := got.SpecAccess[id]; !ok || g != w {
			t.Fatalf("%s: spec instr %d classified %v, want %v", label, id, g, w)
		}
	}
	for b := range want.In {
		if !want.In[b].Equal(got.In[b]) {
			t.Fatalf("%s: In state of block %d differs", label, b)
		}
	}
}

// TestStatsFullyAssociativeAcrossParallelism pins the stats block on the
// paper's fully-associative cache: the partition section is the dense one
// (one engine, no set groups), and the fixpoint counters are live and agree
// with the Result.
func TestStatsFullyAssociativeAcrossParallelism(t *testing.T) {
	prog := compile(t, bench.Fig2Program(-1))
	opts := DefaultOptions()
	col := obs.NewCollector()
	opts.Collector = col
	res, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := obs.PartitionStats{Engines: 1, Groups: 0, DepthGroup: -1}
	if got := col.Snapshot().Partition; got != want {
		t.Fatalf("partition %+v, want the dense %+v", got, want)
	}
	// The counters must also be live, not zero-value placeholders.
	st := res.Stats
	if st.Iterations == 0 || st.Transfers == 0 || st.Joins == 0 || st.Colors == 0 || st.LanesSpawned == 0 {
		t.Fatalf("implausibly idle fixpoint counters: %+v", st)
	}
	if st.Iterations != int64(res.Iterations) {
		t.Fatalf("Stats.Iterations=%d disagrees with Result.Iterations=%d", st.Iterations, res.Iterations)
	}
}

// TestStatsRepeatedRunsDeterministic re-runs the same set-associative
// analysis and requires identical results and counters every time.
func TestStatsRepeatedRunsDeterministic(t *testing.T) {
	prog := compileBench(t, "jcmarker")
	opts := DefaultOptions()
	opts.Cache = setAssocConfig
	var first *Result
	runs := 3
	if raceDetectorOn || testing.Short() {
		runs = 2
	}
	for i := 0; i < runs; i++ {
		res, err := Analyze(prog, opts)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if first == nil {
			first = res
			continue
		}
		requireSameResult(t, fmt.Sprintf("run %d", i), first, res)
		if res.Stats != first.Stats || res.Iterations != first.Iterations {
			t.Fatalf("run %d: stats drifted:\n got %+v\nwant %+v", i, res.Stats, first.Stats)
		}
	}
}

// TestStatsCollectorFlush checks the collector plumbing end to end at the
// core layer, for every entry point: a run with a collector snapshots
// exactly the counters the Result carries, plus the bytecode and dense
// partition sections, and a nil collector changes nothing about the
// analysis.
func TestStatsCollectorFlush(t *testing.T) {
	prog := compile(t, bench.Fig2Program(-1))
	for _, tc := range []struct {
		name    string
		analyze func(*ir.Program, Options) (*Result, error)
	}{
		{"data", Analyze},
		{"icache", AnalyzeInstructionCache},
		{"persistence", AnalyzePersistence},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			col := obs.NewCollector()
			opts.Collector = col
			withCol, err := tc.analyze(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			snap := col.Snapshot()
			if snap.Fixpoint != withCol.Stats {
				t.Fatalf("collector fixpoint %+v, result carries %+v", snap.Fixpoint, withCol.Stats)
			}
			if snap.Bytecode.Blocks == 0 || snap.Bytecode.ArchSteps == 0 {
				t.Errorf("bytecode section %+v, want the step program's shape", snap.Bytecode)
			}
			if want := (obs.PartitionStats{Engines: 1, Groups: 0, DepthGroup: -1}); snap.Partition != want {
				t.Errorf("partition %+v, want the dense %+v", snap.Partition, want)
			}
			opts.Collector = nil
			without, err := tc.analyze(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			if without.Stats != withCol.Stats {
				t.Fatalf("collector presence changed semantic counters:\n nil %+v\n col %+v", without.Stats, withCol.Stats)
			}
			requireSameResult(t, "nil vs collector", withCol, without)
		})
	}
}

// TestCollectorOverhead is the observability layer's performance contract:
// attaching a collector may not slow the fixpoint on the medium reference
// kernel by more than 2%. Rounds are interleaved and compared by minimum so
// one scheduling hiccup cannot fail the build, and a measurement that still
// exceeds the bound is repeated from scratch before failing: external load
// (the rest of `go test ./...` saturating every core) can only inflate a
// sample, so a genuine regression fails every attempt while transient
// contention does not. One g72 analysis takes only tens of milliseconds, so
// host noise would be a large share of a one-analysis sample; each sample
// times a batch of analyses spanning at least sampleSpan instead. The two
// configurations alternate analysis by analysis within a round, so drift in
// the host's speed bills both alike, and each analysis is timed in the
// process's CPU time (cpuTime), which the rest of the suite running beside
// the test does not inflate.
func TestCollectorOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round timing benchmark; skipped in -short")
	}
	if raceDetectorOn {
		t.Skip("race instrumentation distorts the timing comparison")
	}
	const sampleSpan = 200 * time.Millisecond
	prog := compileBench(t, "g72")
	opts := DefaultOptions()
	analyze := func(col *obs.Collector) time.Duration {
		opts.Collector = col
		runtime.GC() // don't bill one analysis for the previous one's garbage
		start := cpuTime()
		if _, err := Analyze(prog, opts); err != nil {
			t.Fatal(err)
		}
		return cpuTime() - start
	}
	// Warm up, and size the batch from the faster of two analyses.
	one := min(analyze(nil), analyze(nil))
	batch := int(sampleSpan/max(one, time.Millisecond)) + 1
	t.Logf("one analysis %v, %d analyses per sample", one, batch)
	measure := func() (minNil, minCol time.Duration) {
		const rounds = 6
		minNil, minCol = time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < rounds; i++ {
			var nilTime, colTime time.Duration
			col := obs.NewCollector()
			for k := 0; k < batch; k++ {
				// Alternate the order so slow drift (thermal, background
				// load) penalizes both configurations equally.
				if (i+k)%2 == 0 {
					nilTime += analyze(nil)
					colTime += analyze(col)
				} else {
					colTime += analyze(col)
					nilTime += analyze(nil)
				}
			}
			minNil, minCol = min(minNil, nilTime), min(minCol, colTime)
		}
		return minNil, minCol
	}
	const attempts = 3
	var minNil, minCol time.Duration
	var ratio float64
	for a := 1; a <= attempts; a++ {
		minNil, minCol = measure()
		if minNil <= 0 {
			t.Skipf("clock too coarse: nil run measured %v", minNil)
		}
		ratio = float64(minCol) / float64(minNil)
		t.Logf("attempt %d: min nil=%v collector=%v ratio=%.4f", a, minNil, minCol, ratio)
		if ratio <= 1.02 {
			return
		}
	}
	t.Fatalf("collector overhead %.2f%% exceeds 2%% on all %d attempts (nil %v, collector %v)",
		(ratio-1)*100, attempts, minNil, minCol)
}
