// Package obs is the analysis observability layer: a zero-dependency
// recorder for the metrics the paper's evaluation is built on (fixpoint
// iterations, speculative-lane counts, §6.2 depth-bound hits, per-phase
// wall clock), threaded through the compile and analysis pipeline.
//
// A Collector records one run, on the goroutine that runs it: one compile
// (runner.Compile) or one analysis. It takes no lock and sums nothing. The
// cost splits three ways so the hot path stays hot:
//
//   - The fixpoint engine counts its semantic counters in plain struct
//     fields and hands them to the Collector once, after its run: nothing
//     per iteration.
//   - Phase timing is two time.Now calls per phase; phases are coarse
//     (parse, lower, fixpoint), so this is noise.
//   - A nil *Collector is valid everywhere and every method on it is an
//     allocation-free no-op, so un-instrumented runs pay nothing.
//
// Semantic counters are deterministic by construction: the engine counts
// on one goroutine, and each section of the document is written once, by
// the step that computed it. That determinism is the testable contract
// pinned by the golden and property tests.
package obs

import "time"

// Collector records one run's Stats. The zero value is ready to use; a nil
// *Collector is valid and turns every method into a no-op. A collector is
// used by the one goroutine running the compile or analysis it records.
type Collector struct {
	stats Stats
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// noopStop is returned by StartPhase on a nil collector; a shared func value
// keeps the nil fast path allocation-free.
var noopStop = func() {}

// StartPhase begins timing a named wall-clock phase and returns the function
// that ends it. Phases are recorded in end order; nested or overlapping
// phases simply produce multiple entries.
func (c *Collector) StartPhase(name string) func() {
	if c == nil {
		return noopStop
	}
	start := time.Now()
	return func() {
		c.stats.Phases = append(c.stats.Phases, PhaseStat{Name: name, Nanos: time.Since(start).Nanoseconds()})
	}
}

// Phase times fn as a named phase.
func (c *Collector) Phase(name string, fn func()) {
	if c == nil {
		fn()
		return
	}
	stop := c.StartPhase(name)
	fn()
	stop()
}

// SetProgram records the analyzed program's shape.
func (c *Collector) SetProgram(p ProgramStats) {
	if c == nil {
		return
	}
	c.stats.Program = p
}

// AddPass appends one pre-analysis pass record.
func (c *Collector) AddPass(name string, changed int) {
	if c == nil {
		return
	}
	c.stats.Passes = append(c.stats.Passes, PassStat{Name: name, Changed: changed})
}

// SetFixpoint records an analysis's sections once its fixpoint has run: the
// shape of its access-step program, its fixpoint counters, and the partition
// section, which is the same for every analysis because every analysis is
// one dense fixpoint.
func (c *Collector) SetFixpoint(steps BytecodeStats, f FixpointStats) {
	if c == nil {
		return
	}
	c.stats.Bytecode = steps
	c.stats.Fixpoint = f
	c.stats.Partition = PartitionStats{Engines: 1, DepthGroup: -1}
}

// Replay copies a compile snapshot's program shape, passes and phases into
// the collector of the analysis that follows, so that one Stats document
// covers the whole pipeline. A nil receiver or a nil snapshot is a no-op.
func (c *Collector) Replay(s *Stats) {
	if c == nil || s == nil {
		return
	}
	c.stats.Program = s.Program
	c.stats.Passes = append(c.stats.Passes, s.Passes...)
	c.stats.Phases = append(c.stats.Phases, s.Phases...)
}

// Snapshot returns a deep copy of the recorded stats; the collector can
// keep recording afterwards.
func (c *Collector) Snapshot() *Stats {
	if c == nil {
		return nil
	}
	return c.stats.Clone()
}
