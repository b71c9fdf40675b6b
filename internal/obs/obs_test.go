package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestNilCollectorNoOps pins the nil fast path: every method on a nil
// *Collector is a safe no-op.
func TestNilCollectorNoOps(t *testing.T) {
	var c *Collector
	c.StartPhase("x")()
	ran := false
	c.Phase("y", func() { ran = true })
	if !ran {
		t.Fatal("Phase on nil collector must still run fn")
	}
	c.SetProgram(ProgramStats{Blocks: 1})
	c.AddPass("sccp", 3)
	c.AddFixpoint(FixpointStats{Iterations: 7})
	c.SetPartition(PartitionStats{Engines: 2})
	if got := c.Snapshot(); got != nil {
		t.Fatalf("nil collector snapshot = %+v, want nil", got)
	}
}

// TestNilCollectorAllocFree is half of the overhead contract: the nil
// fast path must not allocate, so un-instrumented analyses pay nothing.
func TestNilCollectorAllocFree(t *testing.T) {
	var c *Collector
	fs := FixpointStats{Iterations: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		c.StartPhase("p")()
		c.AddFixpoint(fs)
		c.AddPass("sccp", 1)
		c.SetProgram(ProgramStats{})
		c.SetPartition(PartitionStats{})
	})
	if allocs != 0 {
		t.Fatalf("nil-collector hot path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCollectorAccumulates checks the merge semantics: fixpoint counters
// sum, program/partition are last-write-wins, passes and phases append.
func TestCollectorAccumulates(t *testing.T) {
	c := NewCollector()
	c.SetProgram(ProgramStats{Blocks: 9, CondBranches: 3, ResolvedBranches: 1})
	c.AddPass("sccp", 5)
	c.AddPass("resolve", 1)
	c.AddFixpoint(FixpointStats{Iterations: 10, Joins: 3})
	c.AddFixpoint(FixpointStats{Iterations: 5, LanesSpawned: 2})
	c.SetPartition(PartitionStats{Engines: 3, Groups: 3, DepthGroup: -1})
	c.Phase("fixpoint", func() {})

	s := c.Snapshot()
	if s.Program.Blocks != 9 || s.Program.Lanes() != 6 {
		t.Fatalf("program stats wrong: %+v (lanes %d)", s.Program, s.Program.Lanes())
	}
	if len(s.Passes) != 2 || s.Passes[0].Name != "sccp" || s.Passes[1].Changed != 1 {
		t.Fatalf("pass stats wrong: %+v", s.Passes)
	}
	if s.Fixpoint.Iterations != 15 || s.Fixpoint.Joins != 3 || s.Fixpoint.LanesSpawned != 2 {
		t.Fatalf("fixpoint counters wrong: %+v", s.Fixpoint)
	}
	if s.Partition.Engines != 3 {
		t.Fatalf("partition stats wrong: %+v", s.Partition)
	}
	if len(s.Phases) != 1 || s.Phases[0].Name != "fixpoint" {
		t.Fatalf("phases wrong: %+v", s.Phases)
	}

	// Snapshot is a deep copy: mutating it must not reach the collector.
	s.Passes[0].Changed = 999
	if c.Snapshot().Passes[0].Changed == 999 {
		t.Fatal("snapshot shares slice backing with collector")
	}
}

// TestCollectorConcurrentFlush drives concurrent engine flushes under -race
// and checks the sum is exact.
func TestCollectorConcurrentFlush(t *testing.T) {
	c := NewCollector()
	const goroutines, perG = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.AddFixpoint(FixpointStats{Iterations: 1, Transfers: 2})
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Fixpoint.Iterations != goroutines*perG || s.Fixpoint.Transfers != 2*goroutines*perG {
		t.Fatalf("lost updates: %+v", s.Fixpoint)
	}
}

// TestZeroTimes checks that only wall-clock fields are cleared.
func TestZeroTimes(t *testing.T) {
	s := &Stats{
		Fixpoint: FixpointStats{Iterations: 42},
		Phases:   []PhaseStat{{Name: "parse", Nanos: 123}, {Name: "fixpoint", Nanos: 456}},
	}
	s.ZeroTimes()
	if s.Fixpoint.Iterations != 42 {
		t.Fatal("ZeroTimes touched a semantic counter")
	}
	for _, p := range s.Phases {
		if p.Nanos != 0 {
			t.Fatalf("phase %s not zeroed", p.Name)
		}
	}
	if len(s.Phases) != 2 || s.Phases[0].Name != "parse" {
		t.Fatal("ZeroTimes must keep phase names and order")
	}
	var nilStats *Stats
	if nilStats.ZeroTimes() != nil || nilStats.Clone() != nil {
		t.Fatal("nil Stats helpers must return nil")
	}
}

// TestWriteText smoke-checks the human rendering mentions the §6.2 and §6.4
// counters by their glossary names.
func TestWriteText(t *testing.T) {
	s := &Stats{
		Program:   ProgramStats{Blocks: 3, CondBranches: 2},
		Fixpoint:  FixpointStats{Iterations: 10, DepthHitBounds: 4},
		Partition: PartitionStats{Engines: 1},
	}
	var sb strings.Builder
	s.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"iterations", "lanes", "b_h", "dense single fixpoint"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text rendering missing %q:\n%s", want, out)
		}
	}
}
