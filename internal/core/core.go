// Package core implements the paper's contribution: abstract interpretation
// that is sound under speculative execution (Algorithms 2 and 3).
//
// The CFG is augmented — implicitly, by the engine's sweep — with the
// paper's virtual control flows: for every conditional branch b and
// predicted direction p, a *color* (b, p) models the speculative execution
// of the predicted side. The engine tracks three families of states:
//
//   - S[n]      — the normal (architectural) state at block entry;
//   - Lane[n][c] — the wrong-path exploration state of color c with its
//     remaining speculation budget (the region between the paper's vn_start
//     and the rollback points);
//   - SS[n]     — speculative states after rollback, one slot per color and
//     rollback block (one per color under just-in-time merging), propagated
//     through the other branch until the branch's immediate post-dominator
//     (vn_stop), where they merge back into S (Just-in-Time merging, Fig. 6c).
//
// The merge strategies of Fig. 6 are selectable: merging rollback states
// directly into the normal flow (Fig. 6d), just-in-time merging (Fig. 6c,
// default), and per-rollback-block trace partitioning which approximates
// the unmerged flows of Fig. 6a/b.
//
// Each analysis builds one weak topological order of the effective CFG
// (cfg.EffectiveWTO), in flat form with the effective successor lists it
// was built over. The interval pre-pass and the engine propagate along
// those lists and widen at its component heads, the engine sweeps it, and
// Result.WTO hands it to the WCET schema. The vn_stop of each branch comes
// from the post-dominators of the full edge set (cfg.PostDominators). The
// Algorithm-1 baseline hands the generic solver the same order's effective
// successor lists; no analysis builds a cfg.Graph.
package core

import (
	"context"
	"fmt"
	"runtime/pprof"

	"specabsint/internal/cache"
	"specabsint/internal/cfg"
	"specabsint/internal/interval"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/obs"
)

// Strategy selects how speculative states merge with normal states (Fig. 6).
type Strategy int

// Merge strategies.
const (
	// StrategyJustInTime merges all rollback states of a color before the
	// other branch, propagates the merged state through it, and joins the
	// normal flow at the branch's post-dominator (Fig. 6c).
	StrategyJustInTime Strategy = iota
	// StrategyMergeAtRollback joins rollback states into the normal state
	// at the other branch's entry (Fig. 6d) — the most aggressive merge.
	StrategyMergeAtRollback
	// StrategyPerRollbackBlock keeps one speculative flow per (color,
	// rollback block) pair, approximating the unmerged virtual flows of
	// Fig. 6a/b by trace partitioning. Most precise, most expensive.
	StrategyPerRollbackBlock
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyJustInTime:
		return "just-in-time"
	case StrategyMergeAtRollback:
		return "merge-at-rollback"
	case StrategyPerRollbackBlock:
		return "per-rollback-block"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Options configures the analysis.
type Options struct {
	// Cache is the modeled cache geometry.
	Cache layout.CacheConfig
	// Speculative enables the virtual control flows; false runs the plain
	// Algorithm-1 analysis (the unsound-under-speculation baseline).
	Speculative bool
	// DepthMiss (the paper's b_m) bounds the number of speculatively
	// executed instructions when the branch condition is a potential cache
	// miss; DepthHit (b_h) applies when it is proved a must-hit (§6.2).
	DepthMiss int
	DepthHit  int
	// DynamicDepthBounding enables the §6.2 optimization that switches from
	// b_m to b_h once the branch condition's loads are proved must-hits.
	// When disabled, b_m is always used.
	DynamicDepthBounding bool
	// Strategy selects the speculative-state merging strategy (Fig. 6).
	Strategy Strategy
	// RefinedJoin enables the Appendix-B shadow-variable refinement.
	RefinedJoin bool
	// DisableUncertainty turns off the certain-branch lane-spawn skip
	// (laneNeed), so every lane spawns and the useless ones die on their
	// own. It is the spawn-everything reference the pruning-invisibility
	// tests compare against, not exposed through the public configuration
	// surface; the classic pre-pass and its widening run either way.
	DisableUncertainty bool
	// Collector, when non-nil, records the run's compile_exec phase and,
	// once the fixpoint has run, its bytecode, fixpoint and partition
	// sections, from every entry point. Result.Stats carries the fixpoint
	// counters either way; the collector puts them in one stats document
	// with the compile's and the caller's phases. A nil collector costs
	// nothing on the hot path.
	Collector *obs.Collector
}

// wideningThreshold is the number of changes of a loop head's normal state
// in the classic pre-pass after which every further change is widened
// (§6.3).
const wideningThreshold = 4

// DefaultOptions mirrors the paper's experimental setup: 512-line 64-byte
// fully-associative LRU cache, speculation depths 20 (hit) / 200 (miss),
// just-in-time merging, refined join, dynamic depth bounding on, and
// uncertainty-focused speculation.
func DefaultOptions() Options {
	return Options{
		Cache:                layout.PaperConfig(),
		Speculative:          true,
		DepthMiss:            200,
		DepthHit:             20,
		DynamicDepthBounding: true,
		Strategy:             StrategyJustInTime,
		RefinedJoin:          true,
	}
}

// SpecFlow describes one color of the virtual control flow.
type SpecFlow struct {
	Branch    ir.BlockID // block ending in the conditional branch
	Predicted bool       // true: the True successor is speculated
	SpecSucc  ir.BlockID // vn_start target: entry of the speculated side
	OtherSucc ir.BlockID // rollback target: entry of the other side
	Stop      ir.BlockID // vn_stop: the branch's immediate post-dominator
}

// AccessInfo is the analysis verdict for one memory instruction on
// architectural flows (normal execution, including post-rollback cache
// pollution).
type AccessInfo struct {
	Instr *ir.Instr
	Block ir.BlockID
	Acc   cache.Access
	Class cache.Classification
}

// Result is a completed analysis.
type Result struct {
	Prog   *ir.Program
	Layout *layout.Layout
	Opts   Options
	// WTO is the weak topological order of the effective CFG (ir.Block.
	// EffectiveSuccs) that the fixpoint swept: every block reachable from
	// entry, with one component per loop an execution can enter and repeat.
	// Its component heads are the only blocks the interval pre-pass and the
	// fixpoint widened at.
	WTO *cfg.WTO

	// In[b] is the normal abstract state at the entry of block b after the
	// fixpoint (speculative contributions already merged per the strategy).
	In []*cache.State
	// Access maps instruction id to its architectural verdict.
	Access map[int]AccessInfo
	// SpecAccess maps instruction id to its verdict on wrong-path
	// (speculative lane) executions; these misses are invisible
	// architecturally but cost time in the pipeline (the paper's #SpMiss).
	SpecAccess map[int]cache.Classification

	// Iterations counts the fixpoint's WTO-sweep steps, each a walk of one
	// block's normal and post-rollback flows (the paper's #Iteration). Lane
	// walks are not counted here: they run in a drain of their own and show
	// in Stats' lane counters. It measures effort, not verdicts.
	Iterations int
	// Branches counts conditional branches (= colors/2 when speculative).
	Branches int
	// Colors counts speculative flows considered.
	Colors int
	// Flows describes every speculative flow: the branch, the speculated
	// successor, the rollback target, and the vn_stop merge point (the
	// virtual control flow of §5.1 made explicit, e.g. for DOT export).
	Flows []SpecFlow

	// Stats carries the engine's semantic effort counters, deterministic
	// across repeated runs.
	Stats obs.FixpointStats

	domain *cache.Domain
	idx    *interval.Result
}

// MissCount returns the number of static memory accesses not proved
// always-hit on architectural flows (the paper's #Miss).
func (r *Result) MissCount() int {
	n := 0
	for _, a := range r.Access {
		if a.Class != cache.AlwaysHit {
			n++
		}
	}
	return n
}

// SpecMissCount returns the number of static memory accesses not proved
// always-hit on speculative lanes (the paper's #SpMiss).
func (r *Result) SpecMissCount() int {
	n := 0
	for _, c := range r.SpecAccess {
		if c != cache.AlwaysHit {
			n++
		}
	}
	return n
}

// AccessCount returns the number of architecturally reachable memory
// accesses.
func (r *Result) AccessCount() int { return len(r.Access) }

// HitCount returns the number of accesses proved always-hit.
func (r *Result) HitCount() int { return r.AccessCount() - r.MissCount() }

// ClassOf returns the architectural verdict for a memory instruction, and
// whether the instruction is architecturally reachable.
func (r *Result) ClassOf(instrID int) (cache.Classification, bool) {
	a, ok := r.Access[instrID]
	return a.Class, ok
}

// AccessOf returns the resolved candidate blocks of a memory instruction.
func (r *Result) AccessOf(in *ir.Instr) cache.Access {
	return resolveAccess(r.Layout, r.idx, in)
}

// SpecAccessOf returns the candidate blocks of a memory instruction on
// wrong-path executions, where out-of-bounds indices reach adjacent memory.
func (r *Result) SpecAccessOf(in *ir.Instr) cache.Access {
	return resolveSpecAccess(r.Layout, r.idx, in)
}

// Domain exposes the cache domain used by the analysis (for diagnostics).
func (r *Result) Domain() *cache.Domain { return r.domain }

// IndexIntervals exposes the index analysis results.
func (r *Result) IndexIntervals() *interval.Result { return r.idx }

// Analyze runs the (speculative) abstract interpretation on prog.
func Analyze(prog *ir.Program, opts Options) (*Result, error) {
	return AnalyzeContext(context.Background(), prog, opts)
}

// AnalyzeContext is Analyze with cancellation: the fixpoint polls ctx
// between WTO-sweep steps and between lane-drain pops, and returns ctx.Err()
// once it is done. The analysis itself is pure, so a canceled run leaves no
// state behind.
func AnalyzeContext(ctx context.Context, prog *ir.Program, opts Options) (*Result, error) {
	return analyze(ctx, prog, opts, dataCache)
}

// model selects what one analysis tracks.
type model int

const (
	// dataCache is the must/may analysis of loads and stores.
	dataCache model = iota
	// instrCache is the must/may analysis of instruction fetches.
	instrCache
	// persistence is the first-miss analysis of loads and stores.
	persistence
)

// analyze runs the analysis behind all three entry points: it builds the
// engine (prepare), runs the fixpoint under the pprof label phase=fixpoint,
// and records the bytecode, fixpoint and partition sections in
// opts.Collector with one call. The stats goldens, the stats schema, and
// the benchmark read the compile_exec and bytecode names.
func analyze(ctx context.Context, prog *ir.Program, opts Options, m model) (*Result, error) {
	e, err := prepare(prog, opts, m)
	if err != nil {
		return nil, err
	}
	var runErr error
	pprof.Do(ctx, pprof.Labels("phase", "fixpoint"), func(ctx context.Context) {
		runErr = e.run(ctx)
	})
	if runErr != nil {
		return nil, runErr
	}
	res := e.result()
	opts.Collector.SetFixpoint(e.steps.stats(), res.Stats)
	return res, nil
}

// prepare builds the engine for one analysis of prog under model m: it
// builds the one WTO of the effective CFG, whose component heads are the
// loops the interval pre-pass and the engine widen at, resolves every access
// once, up front (timed as compile_exec), and sets the domain the model
// needs.
func prepare(prog *ir.Program, opts Options, m model) (*engine, error) {
	if err := ValidateDepths(opts.DepthMiss, opts.DepthHit); err != nil {
		return nil, err
	}
	var l *layout.Layout
	var fetchBlocks []layout.BlockID
	var err error
	if m == instrCache {
		l, fetchBlocks, err = layout.CodeLayout(prog, opts.Cache)
	} else {
		l, err = layout.New(prog, opts.Cache)
	}
	if err != nil {
		return nil, err
	}
	if m != dataCache {
		// Dynamic depth bounding keys off data-cache must-hit facts, which
		// neither the i-cache nor the persistence domain provides; use the
		// conservative b_m window throughout.
		opts.DynamicDepthBounding = false
	}
	wto := cfg.EffectiveWTO(prog)
	idx := interval.Analyze(prog, wto)
	var steps *stepProgram
	opts.Collector.Phase("compile_exec", func() {
		if m == instrCache {
			steps = fetchSteps(prog, fetchBlocks)
		} else {
			steps = dataSteps(prog, l, idx)
		}
	})
	e := newEngine(prog, wto, l, idx, opts, steps)
	if m == persistence {
		e.dom.Persist = true
		e.dom.Refined = false // the NYoung refinement is a must-analysis rule
	}
	return e, nil
}

// ValidateDepths is the rule every analysis applies to its speculation
// depths b_m (miss) and b_h (hit): neither is negative, and b_h does not
// exceed b_m. The wire applies it where it resolves options, so the
// service rejects as a bad request what an analysis would reject.
func ValidateDepths(miss, hit int) error {
	if miss < 0 || hit < 0 {
		return fmt.Errorf("core: speculation depths must be non-negative")
	}
	if hit > miss {
		return fmt.Errorf("core: DepthHit (%d) must not exceed DepthMiss (%d)", hit, miss)
	}
	return nil
}

// resolveAccess maps a memory instruction to its candidate cache blocks
// using the index intervals, clamped to the symbol: architecturally, an
// out-of-bounds access is a program fault, so in-bounds candidates suffice.
func resolveAccess(l *layout.Layout, idx *interval.Result, in *ir.Instr) cache.Access {
	sym := l.Prog.Symbol(in.Sym)
	iv := idx.IndexOf(in)
	if iv.IsSingle() && iv.Lo >= 0 && iv.Lo < int64(sym.Len) {
		return cache.Access{Sym: in.Sym, First: l.BlockOfElem(in.Sym, iv.Lo), Count: 1}
	}
	first, count := l.BlockRangeOfElems(in.Sym, iv.Lo, iv.Hi)
	return cache.Access{Sym: in.Sym, First: first, Count: count}
}

// resolveSpecAccess maps a memory instruction to candidate blocks on
// *wrong-path* executions, where an out-of-bounds index does not fault but
// reads whatever memory sits at the computed address (Spectre v1). The
// candidate range therefore extends beyond the symbol, clamped only to the
// program's address space.
func resolveSpecAccess(l *layout.Layout, idx *interval.Result, in *ir.Instr) cache.Access {
	sym := l.Prog.Symbol(in.Sym)
	iv := idx.IndexOf(in)
	if iv.Lo >= 0 && iv.Hi < int64(sym.Len) {
		return resolveAccess(l, idx, in)
	}
	base := l.Base[in.Sym]
	elemSize := int64(sym.ElemSize)
	end := l.AddressSpaceEnd()
	// Maximum element offset that stays inside the address space.
	maxElem := (end - base) / elemSize
	lo, hi := iv.Lo, iv.Hi
	if lo < 0 {
		lo = -base / elemSize // reaches address 0
	}
	if hi > maxElem {
		hi = maxElem
	}
	loAddr := base + lo*elemSize
	hiAddr := base + hi*elemSize
	if loAddr < 0 {
		loAddr = 0
	}
	if loAddr >= end {
		loAddr = end - 1
	}
	if hiAddr >= end {
		hiAddr = end - 1
	}
	if hiAddr < loAddr {
		hiAddr = loAddr
	}
	first := l.BlockOfAddr(loAddr)
	last := l.BlockOfAddr(hiAddr)
	return cache.Access{Sym: in.Sym, First: first, Count: int(last-first) + 1}
}
