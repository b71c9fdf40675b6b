// Package obs is the analysis observability layer: a zero-dependency
// collector for the metrics the paper's evaluation is built on (fixpoint
// iterations, speculative-lane counts, §6.2 depth-bound hits, per-phase
// wall clock), threaded through the compile and analysis pipeline.
//
// The design splits the cost three ways so the hot path stays hot:
//
//   - The fixpoint engine accumulates its semantic counters in plain (non-
//     atomic) struct fields local to one engine and flushes them into the
//     Collector once per engine run — one mutex acquisition per fixpoint,
//     nothing per iteration.
//   - Phase timing is two time.Now calls per phase; phases are coarse
//     (parse, lower, fixpoint), so this is noise.
//   - A nil *Collector is valid everywhere and every method on it is an
//     allocation-free no-op, so un-instrumented runs pay nothing.
//
// Semantic counters are deterministic by construction: each engine's
// counting is single-goroutine, and aggregation across runs is integer
// addition, which no goroutine schedule can reorder into a different sum. That determinism is the testable contract pinned by
// the golden and property tests.
package obs

import (
	"sync"
	"time"
)

// Collector accumulates one run's Stats. The zero value is ready to use;
// a nil *Collector is valid and turns every method into a no-op. Collectors
// are safe for concurrent use.
type Collector struct {
	mu    sync.Mutex
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
		d := time.Since(start)
		c.mu.Lock()
		c.stats.Phases = append(c.stats.Phases, PhaseStat{Name: name, Nanos: d.Nanoseconds()})
		c.mu.Unlock()
	}
}

// AddPhase appends an already-measured phase sample — used to replay the
// compile-time phases (parse, lower, passes) into the analysis collector so
// one Stats document covers the whole pipeline.
func (c *Collector) AddPhase(name string, nanos int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Phases = append(c.stats.Phases, PhaseStat{Name: name, Nanos: nanos})
	c.mu.Unlock()
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

// SetProgram records the analyzed program's shape. Last write wins (the
// shape is recomputed after the pass pipeline).
func (c *Collector) SetProgram(p ProgramStats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Program = p
	c.mu.Unlock()
}

// AddPass appends one pre-analysis pass record.
func (c *Collector) AddPass(name string, changed int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Passes = append(c.stats.Passes, PassStat{Name: name, Changed: changed})
	c.mu.Unlock()
}

// AddFixpoint merges one engine run's semantic counters. Engines flush once,
// at the end of their run; sums are schedule-independent.
func (c *Collector) AddFixpoint(f FixpointStats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Fixpoint.Add(f)
	c.mu.Unlock()
}

// SetBytecode records the shape of the fixpoint's access-step program.
func (c *Collector) SetBytecode(b BytecodeStats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Bytecode = b
	c.mu.Unlock()
}

// SetPartition records the cache-set decomposition that ran.
func (c *Collector) SetPartition(p PartitionStats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Partition = p
	c.mu.Unlock()
}

// Replay merges a previously captured snapshot into the collector: program
// shape and partition are overwritten, passes and phases appended, fixpoint
// counters summed. It is how a shared compilation contributes its stats to
// a fresh analysis's document. A nil receiver or a nil snapshot is a no-op.
func (c *Collector) Replay(s *Stats) {
	if c == nil || s == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Program = s.Program
	c.stats.Passes = append(c.stats.Passes, s.Passes...)
	c.stats.Fixpoint.Add(s.Fixpoint)
	if s.Partition != (PartitionStats{}) {
		c.stats.Partition = s.Partition
	}
	if s.Bytecode != (BytecodeStats{}) {
		c.stats.Bytecode = s.Bytecode
	}
	c.stats.Phases = append(c.stats.Phases, s.Phases...)
}

// Snapshot returns a deep copy of the collected stats; the collector can
// keep accumulating afterwards.
func (c *Collector) Snapshot() *Stats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.Clone()
}
