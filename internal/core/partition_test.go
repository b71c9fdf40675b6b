package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/cache"
	"specabsint/internal/cfg"
	"specabsint/internal/gen"
	"specabsint/internal/interval"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/machine"
)

// setAssocConfig is the geometry the partition tests run on: enough sets for
// the grouping to split real programs, small enough associativity that
// classifications stay interesting.
var setAssocConfig = layout.CacheConfig{LineSize: 64, NumSets: 64, Assoc: 8}

// compileCorpus compiles every corpus benchmark (side-channel kernels get
// the standard client wrapper so they have a main).
func compileCorpus(t *testing.T) map[string]*ir.Program {
	t.Helper()
	progs := map[string]*ir.Program{}
	for _, b := range bench.All() {
		code := b.Code
		if b.Kind == bench.SideChannel {
			code = bench.WithClient(b, 4096)
		}
		prog, err := bench.Compile(code, 0)
		if err != nil {
			t.Fatalf("compile %s: %v", b.Name, err)
		}
		progs[b.Name] = prog
	}
	return progs
}

// requireSameResult asserts that two analyses agree on everything a caller
// can observe: classification maps, per-block normal states, and (for the
// same engine kind) iteration counts.
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

// TestPartitionedMatchesDenseCorpus is the PR's headline equivalence
// guarantee: the per-set partitioned engine produces byte-identical
// classifications to the dense engine on the whole corpus, at 1, 4, and
// NumCPU set-workers, and identical results (including iteration counts)
// across worker counts.
func TestPartitionedMatchesDenseCorpus(t *testing.T) {
	if raceDetectorOn {
		t.Skip("full-corpus sweep is too slow under the race detector; see TestPartitionedFanOutRace")
	}
	progs := compileCorpus(t)
	workersList := []int{1, 4, runtime.NumCPU()}
	for name, prog := range progs {
		if testing.Short() && name != "susan" && name != "jcmarker" {
			continue
		}
		opts := DefaultOptions()
		opts.Cache = setAssocConfig
		dense, err := Analyze(prog, opts)
		if err != nil {
			t.Fatalf("%s dense: %v", name, err)
		}
		var first *Result
		for _, w := range workersList {
			opts.SetParallelism = w
			part, err := Analyze(prog, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			requireSameResult(t, fmt.Sprintf("%s workers=%d vs dense", name, w), dense, part)
			if first == nil {
				first = part
			} else {
				if part.Iterations != first.Iterations {
					t.Fatalf("%s workers=%d: %d iterations, want %d (must not depend on worker count)",
						name, w, part.Iterations, first.Iterations)
				}
				if part.Stats != first.Stats {
					t.Fatalf("%s workers=%d: semantic counters depend on worker count:\n got %+v\nwant %+v",
						name, w, part.Stats, first.Stats)
				}
				if part.Partition != first.Partition {
					t.Fatalf("%s workers=%d: partition stats depend on worker count:\n got %+v\nwant %+v",
						name, w, part.Partition, first.Partition)
				}
			}
		}
	}
}

// TestPartitionedMatchesDenseStrategies re-checks equivalence on the
// kernels known to split into many groups, across the merge strategies and
// with dynamic depth bounding both on and off (the depth oracle is only
// exercised when it is on).
func TestPartitionedMatchesDenseStrategies(t *testing.T) {
	if raceDetectorOn {
		t.Skip("full-corpus sweep is too slow under the race detector; see TestPartitionedFanOutRace")
	}
	if testing.Short() {
		t.Skip("strategy cross-product is slow; the corpus test covers the default strategy")
	}
	progs := compileCorpus(t)
	for _, name := range []string{"susan", "jcmarker", "stc"} {
		prog, ok := progs[name]
		if !ok {
			t.Fatalf("kernel %q missing from corpus", name)
		}
		for _, strat := range []Strategy{StrategyJustInTime, StrategyMergeAtRollback, StrategyPerRollbackBlock} {
			for _, ddb := range []bool{true, false} {
				opts := DefaultOptions()
				opts.Cache = setAssocConfig
				opts.Strategy = strat
				opts.DynamicDepthBounding = ddb
				dense, err := Analyze(prog, opts)
				if err != nil {
					t.Fatalf("%s dense: %v", name, err)
				}
				opts.SetParallelism = 4
				part, err := Analyze(prog, opts)
				if err != nil {
					t.Fatalf("%s part: %v", name, err)
				}
				label := fmt.Sprintf("%s strategy=%v ddb=%v", name, strat, ddb)
				requireSameResult(t, label, dense, part)
			}
		}
	}
}

// TestPartitionedMatchesDenseRandom is the property test: on random MiniC
// programs (the shared internal/gen generator) the pooled+partitioned engine
// must classify exactly like the serial dense engine — including when the
// grouping collapses and the dense fallback kicks in — at SetParallelism
// 0, 1, 4, and NumCPU. On the same corpus it re-checks the oracle soundness
// property concretely: the partitioned verdicts must over-approximate a
// forced-mispredict speculative execution (this sweep also runs under the
// race detector, with a smaller corpus).
func TestPartitionedMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	n := 40
	if raceDetectorOn || testing.Short() {
		n = 8
	}
	workersList := []int{1, 4, runtime.NumCPU()}
	for trial := 0; trial < n; trial++ {
		src := gen.Source(rng)
		prog := compile(t, src)
		opts := DefaultOptions()
		opts.Cache = layout.CacheConfig{LineSize: 64, NumSets: 8, Assoc: 4}
		opts.DepthMiss = 30
		opts.DepthHit = 30
		opts.SetParallelism = 0
		dense, err := Analyze(prog, opts)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		var first *Result
		for _, w := range workersList {
			opts.SetParallelism = w
			part, err := Analyze(prog, opts)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, w, err)
			}
			requireSameResult(t, fmt.Sprintf("trial %d workers=%d", trial, w), dense, part)
			if first == nil {
				first = part
			} else if part.Stats != first.Stats || part.Partition != first.Partition {
				t.Fatalf("trial %d workers=%d: stats depend on worker count:\n got %+v %+v\nwant %+v %+v",
					trial, w, part.Stats, part.Partition, first.Stats, first.Partition)
			}
		}
		// Concrete oracle check on the partitioned configuration: identical
		// results make one simulation cover every worker count.
		opts.SetParallelism = workersList[len(workersList)-1]
		simCfg := machine.Config{
			Cache:           opts.Cache,
			ForceMispredict: true,
			WrongPathOOB:    true,
			DepthMiss:       opts.DepthMiss,
			DepthHit:        opts.DepthHit,
			MaxSteps:        5_000_000,
		}
		checkSoundness(t, prog, opts, simCfg, fmt.Sprintf("trial %d partitioned", trial))
	}
}

// TestPartitionedFanOutRace drives the goroutine fan-out under the race
// detector (the CI race job runs all tests): group engines must share
// nothing mutable.
func TestPartitionedFanOutRace(t *testing.T) {
	b, ok := bench.ByName("jcmarker")
	if !ok {
		t.Fatal("jcmarker not in corpus")
	}
	prog, err := bench.Compile(b.Code, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Cache = setAssocConfig
	opts.SetParallelism = runtime.NumCPU() + 2
	if opts.SetParallelism < 4 {
		opts.SetParallelism = 4
	}
	res, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.AccessCount() == 0 {
		t.Fatal("no accesses classified")
	}
}

// TestPartitionGrouping pins the structural properties the equivalence
// argument rests on: groups are disjoint, every access's candidate sets lie
// in one group, and all branch-slice loads share the depth group.
func TestPartitionGrouping(t *testing.T) {
	progs := compileCorpus(t)
	for name, prog := range progs {
		opts := DefaultOptions()
		opts.Cache = setAssocConfig
		l, err := layout.New(prog, opts.Cache)
		if err != nil {
			t.Fatal(err)
		}
		g := cfg.New(prog)
		idx := interval.Analyze(g)
		steps := dataSteps(prog, l, idx)
		part := partitionSets(prog, l, opts, steps)

		groupOf := make([]int, l.Config.NumSets)
		for i := range groupOf {
			groupOf[i] = -1
		}
		for gi, sets := range part.groups {
			for _, s := range sets {
				if groupOf[s] != -1 {
					t.Fatalf("%s: set %d in groups %d and %d", name, s, groupOf[s], gi)
				}
				groupOf[s] = gi
			}
		}
		check := func(acc cache.Access) {
			first := groupOf[l.SetOf(acc.First)]
			n := acc.Count
			if n > l.Config.NumSets {
				n = l.Config.NumSets
			}
			for i := 0; i < n; i++ {
				if got := groupOf[l.SetOf(acc.First+layout.BlockID(i))]; got != first {
					t.Fatalf("%s: access %+v spans groups %d and %d", name, acc, first, got)
				}
			}
		}
		for _, bs := range steps.blocks {
			for _, st := range bs.steps {
				check(st.acc)
				check(st.spec)
			}
		}
		if part.depthGroup >= 0 {
			for _, b := range prog.Blocks {
				tm := b.Terminator()
				if tm == nil || tm.Op != ir.OpCondBr {
					continue
				}
				loads, resolved := branchSlice(b)
				if !resolved {
					continue
				}
				for _, st := range steps.blocks[b.ID].steps {
					if !loads[st.in.ID] {
						continue
					}
					if got := groupOf[l.SetOf(st.acc.First)]; got != part.depthGroup {
						t.Fatalf("%s: slice load %d in group %d, depth group is %d", name, st.in.ID, got, part.depthGroup)
					}
				}
			}
		}
	}
}
