package core

import (
	"fmt"
	"math"
	"testing"

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
	return compile(t, b.Code)
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

// TestCollectorOverhead is the observability layer's cost contract: a
// collector adds the same small number of allocations to every analysis, on
// kernels whose fixpoints differ in size by more than an order of magnitude,
// so its cost does not grow with fixpoint work. The engine counts in plain
// fields and flushes them once per run; a collector call per sweep step or
// per join would add allocations that grow with the kernel. Allocation
// counts are deterministic where CPU time is not, so a loaded host cannot
// fail the contract. TestStatsCollectorFlush checks that a collector
// changes no semantic counter.
func TestCollectorOverhead(t *testing.T) {
	const maxExtra = 8
	kernels := []string{"vga", "g72", "adpcm"}
	if raceDetectorOn || testing.Short() {
		kernels = []string{"vga", "jcphuff"}
	}
	var extra []float64
	for _, name := range kernels {
		prog := compileBench(t, name)
		// The fewest of three runs: the runtime itself allocates now and
		// then during a run, which can only add to the count.
		allocs := func(collector bool) float64 {
			fewest := math.Inf(1)
			for range 3 {
				fewest = min(fewest, testing.AllocsPerRun(1, func() {
					opts := DefaultOptions()
					if collector {
						opts.Collector = obs.NewCollector()
					}
					if _, err := Analyze(prog, opts); err != nil {
						t.Fatal(err)
					}
				}))
			}
			return fewest
		}
		without := allocs(false)
		extra = append(extra, allocs(true)-without)
		t.Logf("%s: %.0f allocations per analysis, %.0f more with a collector", name, without, extra[len(extra)-1])
	}
	for _, x := range extra {
		if x != extra[0] || x > maxExtra {
			t.Fatalf("a collector adds %v allocations to the analyses of %v; want the same number, at most %d, on each", extra, kernels, maxExtra)
		}
	}
}
