package obs

import (
	"strings"
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
	c.SetFixpoint(BytecodeStats{Blocks: 2}, FixpointStats{Iterations: 7})
	c.Replay(&Stats{Program: ProgramStats{Blocks: 4}})
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
		c.SetFixpoint(BytecodeStats{}, fs)
		c.AddPass("sccp", 1)
		c.SetProgram(ProgramStats{})
	})
	if allocs != 0 {
		t.Fatalf("nil-collector hot path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCollectorRecordsOneRun records one compile and the analysis that
// follows it: the compile's program shape, passes and phases replay into
// the analysis's collector ahead of its own phases, and SetFixpoint writes
// the bytecode and fixpoint sections with the dense partition section.
func TestCollectorRecordsOneRun(t *testing.T) {
	compile := NewCollector()
	compile.Phase("parse", func() {})
	compile.AddPass("sccp", 5)
	compile.AddPass("resolve", 1)
	compile.SetProgram(ProgramStats{Blocks: 9, CondBranches: 3, ResolvedBranches: 1})
	compiled := compile.Snapshot()

	c := NewCollector()
	c.Replay(compiled)
	c.Phase("fixpoint", func() {})
	c.SetFixpoint(BytecodeStats{Blocks: 9, ArchSteps: 4}, FixpointStats{Iterations: 10, Joins: 3, LanesSpawned: 2})

	s := c.Snapshot()
	if s.Program.Blocks != 9 || s.Program.Lanes() != 6 {
		t.Fatalf("program stats wrong: %+v (lanes %d)", s.Program, s.Program.Lanes())
	}
	if len(s.Passes) != 2 || s.Passes[0].Name != "sccp" || s.Passes[1].Changed != 1 {
		t.Fatalf("pass stats wrong: %+v", s.Passes)
	}
	if s.Fixpoint.Iterations != 10 || s.Fixpoint.Joins != 3 || s.Fixpoint.LanesSpawned != 2 {
		t.Fatalf("fixpoint counters wrong: %+v", s.Fixpoint)
	}
	if s.Bytecode.Blocks != 9 || s.Bytecode.ArchSteps != 4 {
		t.Fatalf("bytecode stats wrong: %+v", s.Bytecode)
	}
	if want := (PartitionStats{Engines: 1, DepthGroup: -1}); s.Partition != want {
		t.Fatalf("partition stats %+v, want the dense %+v", s.Partition, want)
	}
	if len(s.Phases) != 2 || s.Phases[0].Name != "parse" || s.Phases[1].Name != "fixpoint" {
		t.Fatalf("phases wrong: %+v", s.Phases)
	}

	// Neither the snapshot nor the replayed compile shares slice backing
	// with the collector.
	s.Passes[0].Changed = 999
	if c.Snapshot().Passes[0].Changed == 999 {
		t.Fatal("snapshot shares slice backing with collector")
	}
	c.stats.Passes[0].Changed = 999
	c.stats.Phases[0].Nanos = -1
	if compiled.Passes[0].Changed == 999 || compiled.Phases[0].Nanos == -1 {
		t.Fatal("replay shares slice backing with the compile snapshot")
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
