// Package specabsint is a static analyzer that makes abstract
// interpretation sound under speculative execution, reproducing Wu & Wang,
// "Abstract Interpretation under Speculative Execution" (PLDI 2019).
//
// The package compiles MiniC programs (a small C subset, see
// internal/source) to an IR, augments the control flow with the paper's
// virtual control flows (colored speculative lanes with rollback states and
// just-in-time merging), and runs an LRU must/may cache analysis over them.
// Two applications are built in: execution-time estimation and cache
// side-channel detection. A concrete speculative CPU simulator provides
// ground truth.
//
// Quick start:
//
//	prog, err := specabsint.CompileOpts(src)
//	report, err := specabsint.AnalyzeContext(ctx, prog)
//	fmt.Println(report.Misses, report.SpecMisses)
//
// Analyses are configured with functional options (WithCache, WithStrategy,
// WithDepths, ...) on top of the paper's defaults; AnalyzeBatch fans many
// (program, options) jobs out across CPUs with per-job error isolation, and
// Service is the long-lived variant behind cmd/specserve: a shared worker
// pool with a two-tier content-addressed cache (compiled programs and full
// reports). Config remains as the plain-struct view of the same knobs —
// Config.Options converts it back to the option form, which is how
// configurations received over the wire (specabsint/wire) reconstruct the
// analysis.
package specabsint

import (
	"context"
	"sort"

	"specabsint/internal/cache"
	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/lower"
	"specabsint/internal/machine"
	"specabsint/internal/obs"
	"specabsint/internal/runner"
	"specabsint/internal/sidechannel"
	"specabsint/internal/wcet"
)

// CacheConfig describes the modeled data cache geometry.
type CacheConfig = layout.CacheConfig

// PaperCache returns the paper's cache: 512 lines of 64 bytes, LRU,
// fully associative.
func PaperCache() CacheConfig { return layout.PaperConfig() }

// Strategy selects how speculative states merge with normal ones (Fig. 6 of
// the paper).
type Strategy = core.Strategy

// Merge strategies.
const (
	JustInTime       = core.StrategyJustInTime
	MergeAtRollback  = core.StrategyMergeAtRollback
	PerRollbackBlock = core.StrategyPerRollbackBlock
)

// Classification of one memory access.
type Classification = cache.Classification

// Access classifications.
const (
	Unknown    = cache.Unknown
	AlwaysHit  = cache.AlwaysHit
	AlwaysMiss = cache.AlwaysMiss
)

// WCETEstimate summarizes the timing analysis.
type WCETEstimate = wcet.Estimate

// Stats is the full observability snapshot of one compile + analyze run:
// program shape, pass effects, deterministic fixpoint counters, the
// partition section (always one dense fixpoint), and per-phase wall clock.
// Request it with WithStats(true); read it from Report.Stats. All counters
// except Phases[].Nanos are deterministic — identical across repeated runs.
// Stats.JSON renders the canonical form validated by
// internal/obs/stats.schema.json.
type Stats = obs.Stats

// Component types of Stats, aliased so callers can name them.
type (
	ProgramStats   = obs.ProgramStats
	PassStat       = obs.PassStat
	FixpointStats  = obs.FixpointStats
	PartitionStats = obs.PartitionStats
	BytecodeStats  = obs.BytecodeStats
	PhaseStat      = obs.PhaseStat
)

// CompiledProgram is a lowered MiniC program ready for analysis.
type CompiledProgram struct {
	prog *ir.Program
	// stats holds the compile-time observability snapshot (program shape,
	// pass effects, parse/lower/passes phase timings); analyzeConfig replays
	// it into the analysis collector when stats are requested.
	stats *obs.Stats
}

// IR exposes the compiled program's textual IR listing (for debugging).
func (p *CompiledProgram) IR() string { return p.prog.String() }

// Stats returns the compile-time observability snapshot: the program's shape
// after lowering and passes, each pass's effect, and the parse/lower/passes
// wall-clock phases. Analysis counters are absent — run AnalyzeContext with
// WithStats(true) and read Report.Stats for the full picture.
func (p *CompiledProgram) Stats() *Stats { return p.stats.Clone() }

// Internal returns the internal IR program. It is exported for the
// command-line tools and examples living in this module.
func (p *CompiledProgram) Internal() *ir.Program { return p.prog }

// Config configures the analysis.
type Config struct {
	// Cache is the modeled cache; defaults to the paper's 512 x 64 B LRU
	// fully-associative cache.
	Cache CacheConfig
	// Speculative enables the speculation-aware analysis; disabling it
	// yields the classic (unsound-under-speculation) baseline.
	Speculative bool
	// DepthMiss / DepthHit bound the speculation window in instructions
	// (the paper's b_m / b_h).
	DepthMiss int
	DepthHit  int
	// DynamicDepthBounding enables the §6.2 optimization.
	DynamicDepthBounding bool
	// Strategy selects the merge strategy (default JustInTime).
	Strategy Strategy
	// RefinedJoin enables the Appendix-B shadow-variable refinement.
	RefinedJoin bool
	// MaxUnroll caps full unrolling of constant-trip loops.
	MaxUnroll int
	// Passes runs the analysis-preserving pass pipeline (SCCP, copy
	// propagation, branch resolution, DCE — see internal/passes) after
	// lowering. On by default: classifications are byte-identical or
	// strictly more precise, never weaker. WithPasses(false) is the escape
	// hatch for debugging or A/B comparison against the untransformed IR.
	Passes bool
	// Stats populates Report.Stats with the observability snapshot (compile
	// phases, pass effects, fixpoint counters, partition shape). Off by
	// default; the un-instrumented analysis path is allocation-free.
	Stats bool
	// MitigateVerify runs the differential secret-pair trace check on the
	// fenced program Mitigate synthesizes (on by default). It only affects
	// Mitigate; the analysis entry points ignore it.
	MitigateVerify bool
}

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig() Config {
	o := core.DefaultOptions()
	return Config{
		Cache:                o.Cache,
		Speculative:          true,
		DepthMiss:            o.DepthMiss,
		DepthHit:             o.DepthHit,
		DynamicDepthBounding: o.DynamicDepthBounding,
		Strategy:             o.Strategy,
		RefinedJoin:          o.RefinedJoin,
		MaxUnroll:            lower.DefaultOptions().MaxUnroll,
		Passes:               true,
		MitigateVerify:       true,
	}
}

func (c Config) coreOptions() core.Options {
	o := core.DefaultOptions()
	o.Cache = c.Cache
	o.Speculative = c.Speculative
	o.DepthMiss = c.DepthMiss
	o.DepthHit = c.DepthHit
	o.DynamicDepthBounding = c.DynamicDepthBounding
	o.Strategy = c.Strategy
	o.RefinedJoin = c.RefinedJoin
	return o
}

// Leak describes one detected cache timing side channel: a secret-indexed
// memory access whose cache behaviour — and therefore latency — can vary
// with the secret. The zero Class (Unknown) is what makes the timing
// observable; Leaks never carry a constant-time verdict.
type Leak struct {
	// Line is the access's source line.
	Line int
	// Symbol is the accessed variable.
	Symbol string
	// Store reports whether the access is a write.
	Store bool
	// Class is the (non-constant) hit/miss verdict that makes the timing
	// observable.
	Class Classification
}

// String renders the leak for reports.
func (l Leak) String() string {
	return sidechannel.Leak{Sym: l.Symbol, Line: l.Line, Class: l.Class, Store: l.Store}.String()
}

// SpectreGadget is a Spectre-v1 style transmission gadget: an access on a
// speculative path whose address may carry a value read out of bounds past a
// mis-speculated bounds check. It shares Leak's shape and rendering; the two
// are reported in separate lists because gadgets are this reproduction's
// extension beyond the paper's timing-channel model.
type SpectreGadget = Leak

// AccessReport describes one memory access in the analyzed program.
type AccessReport struct {
	Line  int
	Store bool
	// Symbol is the accessed variable.
	Symbol string
	// Class is the hit/miss verdict on architectural flows (normal
	// execution including post-rollback pollution).
	Class Classification
	// SpecClass is the verdict on wrong-path executions; SpecReached is
	// false when no speculative lane reaches the access.
	SpecClass   Classification
	SpecReached bool
}

// Report is a completed analysis.
type Report struct {
	// Accesses lists every architecturally reachable memory access, in
	// source order.
	Accesses []AccessReport
	// Misses counts accesses not proved always-hit (the paper's #Miss).
	Misses int
	// SpecMisses counts wrong-path accesses not proved always-hit (#SpMiss).
	SpecMisses int
	// Branches and Iterations report analysis effort.
	Branches   int
	Iterations int
	// WCET summarizes the timing estimate.
	WCET WCETEstimate
	// Leaks lists detected cache side channels (secret-indexed accesses
	// with non-constant timing), in source order.
	Leaks []Leak
	// LeakDetected is true when Leaks is non-empty.
	LeakDetected bool
	// SpectreGadgets lists Spectre-v1 style transmission gadgets: accesses
	// on speculative paths whose address may carry a value read out of
	// bounds past a mis-speculated bounds check.
	SpectreGadgets []SpectreGadget
	// Stats is the observability snapshot, populated only when the analysis
	// ran with WithStats(true) (nil otherwise). Everything except
	// Stats.Phases[].Nanos is deterministic.
	Stats *Stats
}

// CompileOpts parses and lowers MiniC source. Only WithMaxUnroll affects
// lowering, and WithPasses the pass pipeline that follows it. Compilation
// errors satisfy errors.As for *ParseError, with the source position
// preserved.
func CompileOpts(src string, opts ...Option) (*CompiledProgram, error) {
	return compileConfig(src, newConfig(opts))
}

func compileConfig(src string, cfg Config) (*CompiledProgram, error) {
	// Compile-time stats are collected unconditionally: the counters are a
	// handful of integers and the phase timers two clock reads each, noise
	// next to parsing and lowering. WithStats only gates the analysis side.
	prog, stats, err := runner.Compile(src, cfg.MaxUnroll, cfg.Passes)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &CompiledProgram{prog: prog, stats: stats}, nil
}

// AnalyzeContext runs the speculation-aware cache analysis and both
// applications (execution-time estimation and side-channel detection),
// configured by opts on top of the paper's defaults. The fixpoint loop
// polls ctx between iterations; on cancellation the returned error
// satisfies both errors.Is(err, ErrCanceled) and errors.Is(err, ctx.Err()).
func AnalyzeContext(ctx context.Context, p *CompiledProgram, opts ...Option) (*Report, error) {
	rep, err := analyzeConfig(ctx, p, newConfig(opts))
	if err != nil {
		return nil, wrapErr(err)
	}
	return rep, nil
}

// analyzeConfig is the one analysis pipeline behind AnalyzeContext,
// AnalyzeBatch and Service: the side-channel analysis, then the public
// report. Its errors are unwrapped; each entry point wraps them once.
func analyzeConfig(ctx context.Context, p *CompiledProgram, cfg Config) (*Report, error) {
	copts := cfg.coreOptions()
	var col *obs.Collector
	if cfg.Stats {
		col = obs.NewCollector()
		// The analysis's collector starts with the compile snapshot's
		// program shape, passes and phases, so one Stats document covers
		// the whole pipeline.
		col.Replay(p.stats)
		copts.Collector = col
	}
	rep, err := sidechannel.AnalyzeContext(ctx, p.prog, copts)
	if err != nil {
		return nil, err
	}
	out := buildReport(p.prog, rep)
	out.Stats = col.Snapshot()
	return out, nil
}

// buildReport converts the internal side-channel report into the public
// Report. Leaks and SpectreGadgets inherit the source-line ordering of the
// internal report; Accesses are listed in source order.
func buildReport(prog *ir.Program, rep *sidechannel.Report) *Report {
	res := rep.Analysis
	out := &Report{
		Misses:       res.MissCount(),
		SpecMisses:   res.SpecMissCount(),
		Branches:     res.Branches,
		Iterations:   res.Iterations,
		WCET:         wcet.New(res, wcet.DefaultCosts()),
		LeakDetected: rep.LeakDetected(),
	}
	for _, l := range rep.Leaks {
		out.Leaks = append(out.Leaks, Leak{Line: l.Line, Symbol: l.Sym, Store: l.Store, Class: l.Class})
	}
	for _, l := range rep.SpectreLeaks {
		out.SpectreGadgets = append(out.SpectreGadgets, SpectreGadget{Line: l.Line, Symbol: l.Sym, Store: l.Store, Class: l.Class})
	}
	ids := make([]int, 0, len(res.Access))
	for id := range res.Access {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		info := res.Access[id]
		spec, reached := res.SpecAccess[id]
		out.Accesses = append(out.Accesses, AccessReport{
			Line:        info.Instr.Line,
			Store:       info.Instr.Op == ir.OpStore,
			Symbol:      prog.Symbol(info.Instr.Sym).Name,
			Class:       info.Class,
			SpecClass:   spec,
			SpecReached: reached,
		})
	}
	return out
}

// SimulationResult carries the concrete simulator's counters.
type SimulationResult = machine.Stats

// Simulate executes the program on the concrete speculative CPU simulator
// with the same cache geometry and speculation windows as cfg. When
// cfg.Speculative is set, every branch is mispredicted (worst-case
// wrong-path pollution); otherwise speculation is disabled.
func Simulate(p *CompiledProgram, cfg Config) (SimulationResult, error) {
	mc := machine.DefaultConfig()
	mc.Cache = cfg.Cache
	mc.DepthMiss = cfg.DepthMiss
	mc.DepthHit = cfg.DepthHit
	mc.ForceMispredict = true
	if !cfg.Speculative {
		mc.DepthMiss, mc.DepthHit = 0, 0
		mc.ForceMispredict = false
	}
	return machine.RunProgram(p.prog, mc)
}
