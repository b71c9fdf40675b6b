package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Stats is the full observability snapshot of one compile + analyze run: the
// instrument panel behind Report.Stats, `specanalyze -stats`, and the CI
// stats-smoke diff. Its serialized form is a public contract, pinned by
// golden tests and by internal/obs/stats.schema.json.
//
// The counters split into two classes with different guarantees:
//
//   - Semantic counters (Program, Passes, Fixpoint, Partition) describe what
//     the analysis *computed* — how many fixpoint iterations ran, how many
//     lanes were spawned, how often §6.2 pruned the speculation window. They
//     are a pure function of (program, options): byte-identical across
//     repeated runs.
//   - Wall-clock fields (Phases, and nothing else) measure where time went.
//     They vary run to run; ZeroTimes clears them for diffable output.
type Stats struct {
	// Program describes the analyzed IR after lowering and passes.
	Program ProgramStats `json:"program"`
	// Passes records the pre-analysis pipeline's per-pass effect.
	Passes []PassStat `json:"passes,omitempty"`
	// Fixpoint carries the engine's semantic effort counters.
	Fixpoint FixpointStats `json:"fixpoint"`
	// Partition describes the per-cache-set decomposition that ran.
	Partition PartitionStats `json:"partition"`
	// Bytecode describes the fixpoint's per-block access steps. Structural,
	// hence deterministic.
	Bytecode BytecodeStats `json:"bytecode"`
	// Phases is the wall-clock breakdown, in execution order. The only
	// nondeterministic section of the report.
	Phases []PhaseStat `json:"phases,omitempty"`
}

// ProgramStats is the shape of the analyzed program.
type ProgramStats struct {
	// Blocks and Instrs count basic blocks and instructions after lowering.
	Blocks int `json:"blocks"`
	Instrs int `json:"instrs"`
	// Symbols counts memory-resident variables.
	Symbols int `json:"symbols"`
	// MemAccesses counts static Load/Store instructions.
	MemAccesses int `json:"mem_accesses"`
	// CondBranches counts unresolved conditional branches; ResolvedBranches
	// the conditional branches the pass pipeline decided statically (they
	// spawn no lanes), which CondBranches leaves out.
	CondBranches     int `json:"cond_branches"`
	ResolvedBranches int `json:"resolved_branches"`
}

// Lanes returns the number of speculative flows the engine must consider:
// two per unresolved conditional branch (§6.4, one color per predicted
// direction).
func (p ProgramStats) Lanes() int { return 2 * p.CondBranches }

// PassStat records one pre-analysis pass's effect.
type PassStat struct {
	Name string `json:"name"`
	// Changed counts rewritten operands (sccp, copyprop), branches marked
	// resolved (resolve), or instructions nopped (dce).
	Changed int `json:"changed"`
}

// FixpointStats are the engine's semantic effort counters — the paper's
// evaluation columns (§7 Tables 2-4) as first-class data. Every field is
// deterministic: identical across repeated runs. The struct is flat and
// comparable with ==.
type FixpointStats struct {
	// Iterations counts the fixpoint's WTO-sweep steps, each a walk of one
	// block's normal and post-rollback flows (the paper's #Iteration). The
	// lane drain's pops are not counted here; lane work shows in
	// SpecTransfers, LaneJoins and Rollbacks.
	Iterations int64 `json:"iterations"`
	// Joins counts state joins attempted into normal-flow block entries;
	// JoinChanges the subset that changed the target state.
	Joins       int64 `json:"joins"`
	JoinChanges int64 `json:"join_changes"`
	// SpecJoins counts joins into post-rollback (SS) flows, LaneJoins joins
	// into wrong-path lane states.
	SpecJoins int64 `json:"spec_joins"`
	LaneJoins int64 `json:"lane_joins"`
	// Transfers counts cache-domain transfer applications on architectural
	// flows; SpecTransfers the same on wrong-path lanes.
	Transfers     int64 `json:"transfers"`
	SpecTransfers int64 `json:"spec_transfers"`
	// Widenings counts §6.3 widening applications: count-triggered widenings
	// of a loop head's normal state in the classic pre-pass (phase 1), plus
	// reference saturations of loop-head contributions on every flow in the
	// speculative completion (phase 2).
	Widenings int64 `json:"widenings"`
	// Colors counts the speculative flows the engine built: two per
	// unresolved, effectively-reachable conditional branch (§6.4). It is
	// structural: identical in every run over one program.
	Colors int64 `json:"colors"`
	// LanesSpawned counts lane injections at mispredicted branches (a color
	// seeded with a fresh speculation budget); LanesExpired counts lane
	// walks that exhausted their budget inside a block.
	LanesSpawned int64 `json:"lanes_spawned"`
	LanesExpired int64 `json:"lanes_expired"`
	// LanesSkippedCertain counts lane spawns the uncertainty focusing
	// suppressed because the speculation budget provably cannot reach any
	// wrong-path memory access (the skip is invisible to classifications).
	LanesSkippedCertain int64 `json:"lanes_skipped_certain"`
	// FencesHit counts lane walks terminated by reaching a fence instruction
	// (the speculation barrier the mitigation synthesizer inserts): the lane's
	// budget is zeroed at the fence and nothing past it transfers.
	FencesHit int64 `json:"fences_hit"`
	// WTOComponents counts the components of the Bourdoncle weak
	// topological ordering of the effective CFG. Like Colors it is
	// structural, identical in every run over one program; it is 0 for an
	// acyclic CFG.
	WTOComponents int64 `json:"wto_components"`
	// Rollbacks counts rollback states injected into the architectural flow
	// (every memory access inside a speculation window accumulates one).
	Rollbacks int64 `json:"rollbacks"`
	// DepthHitBounds counts §6.2 decisions that proved the branch condition
	// a must-hit and used the small window b_h; DepthMissBounds counts
	// decisions falling back to b_m.
	DepthHitBounds  int64 `json:"depth_hit_bounds"`
	DepthMissBounds int64 `json:"depth_miss_bounds"`
	// StatesPooled counts uses of the engine's scratch states served without
	// allocating: every use of its walk, rollback and saturation states but
	// the first of each.
	StatesPooled int64 `json:"states_pooled"`
}

// PartitionStats is the stats document's partition section. Wire v1 and
// stats.schema.json require it. The analyzer solves one dense fixpoint, so
// every analysis reports Engines=1, Groups=0, DepthGroup=-1 and
// SetsAnalyzed=0, which Collector.SetFixpoint writes; the fields keep the
// names of the per-cache-set decomposition the section once described.
type PartitionStats struct {
	// Engines counts fixpoint engines run: always 1.
	Engines int `json:"engines"`
	// Groups counts independent cache-set groups: always 0.
	Groups int `json:"groups"`
	// DepthGroup is the index of the set group owning §6.2's depth
	// decisions: always -1.
	DepthGroup int `json:"depth_group"`
	// SetsAnalyzed counts cache sets analyzed by set-group engines: always 0.
	SetsAnalyzed int `json:"sets_analyzed"`
}

// BytecodeStats is the shape of the fixpoint's access-step program: how many
// pre-resolved access steps the engine's loops iterate (the fetches, for the
// instruction-cache analysis). A pure function of the lowered program and
// cache geometry — identical across runs.
type BytecodeStats struct {
	// Blocks counts compiled basic blocks.
	Blocks int64 `json:"blocks"`
	// ArchSteps counts pre-resolved architectural access steps; SpecSteps
	// the wrong-path steps (accesses reachable before the block's first
	// fence, with OOB-extended resolutions).
	ArchSteps int64 `json:"arch_steps"`
	SpecSteps int64 `json:"spec_steps"`
	// FencedBlocks counts blocks containing a fence, which truncates their
	// speculative step list.
	FencedBlocks int64 `json:"fenced_blocks"`
}

// PhaseStat is one wall-clock phase sample.
type PhaseStat struct {
	Name string `json:"name"`
	// Nanos is the phase's wall-clock duration. Nondeterministic; zeroed by
	// ZeroTimes for diffable output.
	Nanos int64 `json:"nanos"`
}

// Clone returns a deep copy (the slices are copied, not shared).
func (s *Stats) Clone() *Stats {
	if s == nil {
		return nil
	}
	c := *s
	c.Passes = append([]PassStat(nil), s.Passes...)
	c.Phases = append([]PhaseStat(nil), s.Phases...)
	return &c
}

// ZeroTimes clears every wall-clock field in place, leaving only the
// deterministic semantic counters. Phase names (and their order) are kept:
// which phases ran is part of the contract, how long they took is not.
func (s *Stats) ZeroTimes() *Stats {
	if s == nil {
		return nil
	}
	for i := range s.Phases {
		s.Phases[i].Nanos = 0
	}
	return s
}

// JSON renders the canonical serialized form: two-space indent, trailing
// newline — the exact bytes `specanalyze -stats=json` prints and the golden
// tests pin.
func (s *Stats) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// WriteText renders the human-readable form (`specanalyze -stats=text`):
// one glossary-ordered line per counter, aligned for scanning.
func (s *Stats) WriteText(w io.Writer) {
	p, f := s.Program, s.Fixpoint
	fmt.Fprintf(w, "program:   %d blocks, %d instrs, %d symbols, %d mem accesses\n",
		p.Blocks, p.Instrs, p.Symbols, p.MemAccesses)
	fmt.Fprintf(w, "branches:  %d unresolved, %d resolved statically -> %d speculative lanes\n",
		p.CondBranches, p.ResolvedBranches, p.Lanes())
	for _, ps := range s.Passes {
		fmt.Fprintf(w, "pass:      %-8s changed %d\n", ps.Name, ps.Changed)
	}
	fmt.Fprintf(w, "fixpoint:  %d iterations, %d joins (%d changed), %d spec joins, %d lane joins\n",
		f.Iterations, f.Joins, f.JoinChanges, f.SpecJoins, f.LaneJoins)
	fmt.Fprintf(w, "           %d transfers, %d spec transfers, %d widenings, %d states pooled\n",
		f.Transfers, f.SpecTransfers, f.Widenings, f.StatesPooled)
	fmt.Fprintf(w, "schedule:  %d wto components\n", f.WTOComponents)
	fmt.Fprintf(w, "lanes:     %d colors, %d spawned, %d skipped certain, %d expired, %d rollbacks injected\n",
		f.Colors, f.LanesSpawned, f.LanesSkippedCertain, f.LanesExpired, f.Rollbacks)
	if f.FencesHit > 0 {
		fmt.Fprintf(w, "fences:    %d lane walks killed at a fence\n", f.FencesHit)
	}
	fmt.Fprintf(w, "depth 6.2: %d pruned to b_h, %d at b_m\n",
		f.DepthHitBounds, f.DepthMissBounds)
	if bc := s.Bytecode; bc.Blocks > 0 {
		fmt.Fprintf(w, "steps:     %d blocks -> %d arch + %d spec access steps (%d fenced blocks)\n",
			bc.Blocks, bc.ArchSteps, bc.SpecSteps, bc.FencedBlocks)
	}
	fmt.Fprintf(w, "partition: dense single fixpoint\n")
	for _, ph := range s.Phases {
		fmt.Fprintf(w, "phase:     %-12s %.3f ms\n", ph.Name, float64(ph.Nanos)/1e6)
	}
}

// PoolSnapshot is the expvar-style state of a runner.Pool, for long-running
// batch services. Counters are cumulative since pool creation; Running and
// QueueDepth are instantaneous gauges.
type PoolSnapshot struct {
	// Workers is the pool's configured concurrency.
	Workers int `json:"workers"`
	// Submitted counts jobs handed to Run; Completed those that finished
	// (successfully or not).
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	// Running is the number of jobs executing right now.
	Running int64 `json:"running"`
	// QueueDepth is Submitted - Completed - Running: jobs waiting for a
	// worker.
	QueueDepth int64 `json:"queue_depth"`
	// Panics counts jobs that crashed (isolated into PanicError); Canceled
	// counts jobs that returned a context error.
	Panics   int64 `json:"panics"`
	Canceled int64 `json:"canceled"`
	// CacheHits / CacheMisses / CacheEvictions / CacheSize are the compiled-
	// program tier's counters: how often a job's source was already lowered.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheSize      int64 `json:"cache_size"`
	// ReportCache* are the report tier's counters: how often an identical
	// (source, options) request was answered without running the analysis
	// at all. Together with the program tier above, both levels of
	// the content-addressed cache are observable from one snapshot.
	ReportCacheHits      int64 `json:"report_cache_hits"`
	ReportCacheMisses    int64 `json:"report_cache_misses"`
	ReportCacheEvictions int64 `json:"report_cache_evictions"`
	ReportCacheSize      int64 `json:"report_cache_size"`
}
