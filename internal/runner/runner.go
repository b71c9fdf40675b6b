// Package runner is the batch-analysis engine: a worker pool that fans out
// independent (program, options) analysis jobs across CPUs. The paper's §6.4
// optimization makes colored speculative states independent per branch, and
// its evaluation runs every benchmark under many configurations (strategies
// × depths × cache geometries) — an embarrassingly parallel workload. The
// pool adds the operational pieces a long corpus sweep needs:
//
//   - cancellation: the worker's context reaches core.AnalyzeContext, whose
//     fixpoint polls it between sweep steps and lane-drain pops, so a canceled
//     batch stops mid-analysis rather than after the current job;
//   - panic isolation: a crash in one job becomes that job's *PanicError
//     instead of killing the whole batch;
//   - a two-tier content-addressed cache (see cache.go): compiled programs
//     keyed by (source hash, lowering options), and — for Job.Cache jobs —
//     full analysis results keyed additionally by the analysis options, so a
//     resubmitted request skips the fixpoint entirely;
//   - one worker bound across calls: a job holds one of the pool's worker
//     slots while it compiles and analyzes, however many Run calls are in
//     flight, and a report-cache hit needs no slot;
//   - streamed results in completion order (Run) and a deterministic
//     job-order wrapper (RunAll);
//   - graceful drain (Drain): a shutting-down service can wait for every
//     in-flight job before exiting.
//
// Analyses are pure over the IR, so one compiled program is safely shared
// by any number of concurrent jobs.
package runner

import (
	"context"
	"crypto/sha256"
	"errors"
	"expvar"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/lower"
	"specabsint/internal/obs"
	"specabsint/internal/passes"
	"specabsint/internal/sidechannel"
	"specabsint/internal/source"
)

// Mode selects which analysis a job runs.
type Mode int

// Analysis modes.
const (
	// ModeAnalyze runs the speculative data-cache analysis
	// (core.AnalyzeContext).
	ModeAnalyze Mode = iota
	// ModeSideChannel additionally runs leak and Spectre-gadget detection
	// (sidechannel.AnalyzeContext).
	ModeSideChannel
	// ModeICache runs the §3.2 instruction-cache extension
	// (core.AnalyzeInstructionCacheContext).
	ModeICache
)

// Job is one analysis request: a program (source or pre-compiled) plus the
// analysis options to run it under.
type Job struct {
	// Name labels the job in results and error messages.
	Name string
	// Source is MiniC source, compiled through the pool's program cache.
	// Ignored when Prog is set.
	Source string
	// MaxUnroll caps constant-trip loop unrolling at lowering time; it is
	// part of the cache key. 0 uses the lowering default.
	MaxUnroll int
	// Passes runs the analysis-preserving pass pipeline (internal/passes)
	// after lowering; it is part of the cache key. Every mode analyzes the
	// same compilation: DCE replaces instructions with nops and removes
	// none, so an instruction-cache analysis fetches the same stream.
	Passes bool
	// Prog, when non-nil, is analyzed directly (no compile, no cache).
	Prog *ir.Program
	// Opts configures the analysis.
	Opts core.Options
	// Mode selects the analysis pipeline (default ModeAnalyze).
	Mode Mode
	// Cache enables the report tier for this job: a previous successful run
	// of the identical (source, lowering, options, mode) request is returned
	// without re-running the analysis, and a miss stores its result for the
	// next submission. Only Source jobs participate (the report cache is
	// content-addressed; a caller-supplied Prog has no content key).
	Cache bool

	// run, when non-nil, replaces the built-in pipeline. Test seam for
	// exercising pool mechanics (panics, blocking jobs) deterministically.
	run func(ctx context.Context) (*core.Result, *sidechannel.Report, error)
}

// Result is one completed job.
type Result struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Name echoes the job's label.
	Name string
	// Prog is the program that was analyzed (the cached compilation for
	// Source jobs). Nil when compilation failed.
	Prog *ir.Program
	// Analysis is the cache analysis result; nil when Err is set.
	Analysis *core.Result
	// Leaks carries the side-channel report for ModeSideChannel jobs.
	Leaks *sidechannel.Report
	// Elapsed is the job's wall-clock time (compile + analysis).
	Elapsed time.Duration
	// Stats is the run's observability snapshot: populated when the job ran
	// with a collector (Opts.Collector != nil), whether the result was
	// computed or served from the report cache.
	Stats *obs.Stats
	// CacheHit reports that the result was served from the report cache (no
	// fixpoint ran for this job).
	CacheHit bool
	// Err is the job's failure, if any: a compile or analysis error, the
	// context error for canceled jobs, or a *PanicError for crashed ones.
	Err error
}

// PanicError reports a job that panicked. The batch is not affected; the
// panic value and stack are preserved for debugging.
type PanicError struct {
	Job   string
	Value any
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("job %q panicked: %v", e.Job, e.Value)
}

// progKey identifies one compilation: source content plus every lowering
// option that shapes the IR.
type progKey struct {
	hash      [sha256.Size]byte
	maxUnroll int
	passes    bool
}

// progEntry is a cache slot; once guarantees a single compilation even when
// several workers want the same program concurrently.
type progEntry struct {
	once sync.Once
	prog *ir.Program
	// stats is the compile-time observability snapshot (program shape, pass
	// effects, parse/lower/passes phases), replayed into instrumented jobs so
	// a cached compilation still yields a full stats document.
	stats *obs.Stats
	err   error
}

// Pool is a reusable batch-analysis service. The zero value is not usable;
// create pools with New. A Pool is safe for concurrent use, and its program
// cache persists across Run calls, so consecutive sweeps over the same
// corpus skip re-lowering.
type Pool struct {
	workers int
	// slots holds one token per running job. Every Run call shares it, so
	// at most workers jobs compile or analyze at once.
	slots chan struct{}

	// Lifecycle metrics, atomics so Snapshot never contends with workers.
	// Jobs dropped by cancellation before any worker picked them up count as
	// completed + canceled, keeping Submitted == Completed + Running +
	// queue-resident at every instant.
	submitted atomic.Int64
	completed atomic.Int64
	running   atomic.Int64
	panics    atomic.Int64
	canceled  atomic.Int64

	mu     sync.Mutex
	progs  *lruCache[progKey, *progEntry]
	hits   int64
	misses int64

	reports      *lruCache[reportKey, *reportEntry]
	reportHits   int64
	reportMisses int64
}

// New creates a pool with the given number of workers; workers <= 0 selects
// GOMAXPROCS. Both cache tiers start at their default bounds
// (DefaultProgramCacheBound / DefaultReportCacheBound); SetCacheBounds
// adjusts them.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers: workers,
		slots:   make(chan struct{}, workers),
		progs:   newLRU[progKey, *progEntry](DefaultProgramCacheBound),
		reports: newLRU[reportKey, *reportEntry](DefaultReportCacheBound),
	}
}

// CacheStats returns the program tier's hit and miss counts (the report
// tier's live under ReportCacheStats; Snapshot carries both).
func (p *Pool) CacheStats() (hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// Snapshot returns the pool's expvar-style state: cumulative job counters,
// instantaneous running/queue gauges (a job waiting for a worker slot is
// queued; one holding a slot is running, so Running never exceeds Workers),
// and both cache tiers' hit/miss/eviction/size gauges. The counters are
// read individually (not under one lock), so a snapshot taken while jobs
// move between states is approximately — not transactionally — consistent;
// QueueDepth is clamped at zero for that reason.
func (p *Pool) Snapshot() obs.PoolSnapshot {
	s := obs.PoolSnapshot{
		Workers:   p.workers,
		Submitted: p.submitted.Load(),
		Completed: p.completed.Load(),
		Running:   p.running.Load(),
		Panics:    p.panics.Load(),
		Canceled:  p.canceled.Load(),
	}
	p.mu.Lock()
	s.CacheHits, s.CacheMisses = p.hits, p.misses
	s.CacheEvictions, s.CacheSize = p.progs.evictions, int64(p.progs.len())
	s.ReportCacheHits, s.ReportCacheMisses = p.reportHits, p.reportMisses
	s.ReportCacheEvictions, s.ReportCacheSize = p.reports.evictions, int64(p.reports.len())
	p.mu.Unlock()
	if d := s.Submitted - s.Completed - s.Running; d > 0 {
		s.QueueDepth = d
	}
	return s
}

// Drain blocks until every job submitted before the call has completed, or
// ctx expires. It does not stop new submissions — the caller (a shutting-
// down server) is expected to have closed its intake first.
func (p *Pool) Drain(ctx context.Context) error {
	for {
		if p.submitted.Load() == p.completed.Load() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// PublishExpvar registers the pool's live snapshot under name in the
// process-wide expvar registry, so batch services expose it on /debug/vars
// alongside the runtime's memstats. Like expvar.Publish, it panics if name
// is already registered — publish each pool once, at startup.
func (p *Pool) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return p.Snapshot() }))
}

// Run fans jobs out across the pool's workers and streams results in
// completion order. Concurrent calls share the pool's worker slots. The
// returned channel is closed after the last result; the caller must drain
// it. When ctx is canceled, jobs waiting for a worker slot return their
// context error at once, jobs already running as soon as their fixpoint loop
// observes it, and jobs not yet started are dropped (RunAll converts those
// into per-job context errors).
func (p *Pool) Run(ctx context.Context, jobs []Job) <-chan Result {
	p.submitted.Add(int64(len(jobs)))
	out := make(chan Result)
	feed := make(chan int)
	go func() {
		defer close(feed)
		for i := range jobs {
			select {
			case feed <- i:
			case <-ctx.Done():
				// Jobs never handed to a worker: account them as completed
				// cancellations so the snapshot gauges reconcile.
				p.completed.Add(int64(len(jobs) - i))
				p.canceled.Add(int64(len(jobs) - i))
				return
			}
		}
	}()
	var wg sync.WaitGroup
	workers := p.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				out <- p.runJob(ctx, i, jobs[i])
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// RunAll runs the batch and returns one result per job, in job order —
// deterministic however the workers interleaved. Per-job failures (including
// cancellation) are reported in Result.Err; jobs never started because the
// context was canceled carry the context's error.
func (p *Pool) RunAll(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	started := make([]bool, len(jobs))
	for r := range p.Run(ctx, jobs) {
		results[r.Index] = r
		started[r.Index] = true
	}
	for i := range results {
		if !started[i] {
			err := ctx.Err()
			if err == nil {
				err = context.Canceled // unreachable: only cancellation skips jobs
			}
			results[i] = Result{Index: i, Name: jobs[i].Name, Err: err}
		}
	}
	return results
}

// runJob executes one job with panic isolation. It holds a worker slot
// only to compile and analyze: a report-cache hit is answered without one.
func (p *Pool) runJob(ctx context.Context, idx int, j Job) (res Result) {
	res = Result{Index: idx, Name: j.Name}
	start := time.Now()
	held := false
	defer func() {
		res.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			p.panics.Add(1)
			res = Result{
				Index:   idx,
				Name:    j.Name,
				Elapsed: time.Since(start),
				Err:     &PanicError{Job: j.Name, Value: r, Stack: debug.Stack()},
			}
		}
		if res.Err != nil && (errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded)) {
			p.canceled.Add(1)
		}
		if held {
			p.running.Add(-1)
			<-p.slots
		}
		p.completed.Add(1)
	}()
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	if j.run != nil {
		if res.Err = p.acquire(ctx); res.Err == nil {
			held = true
			res.Analysis, res.Leaks, res.Err = j.run(ctx)
		}
		return res
	}
	// Report tier: identical successful requests are answered without
	// compiling or running anything.
	var rkey reportKey
	cacheable := j.Cache && j.Prog == nil
	if cacheable {
		opts := j.Opts
		opts.Collector = nil
		rkey = reportKey{
			prog:  p.progKeyFor(j.Source, j.MaxUnroll, j.Passes),
			opts:  opts,
			stats: j.Opts.Collector != nil,
			mode:  j.Mode,
		}
		if e, ok := p.reportGet(rkey); ok {
			res.Prog = e.prog
			res.Analysis = e.analysis
			res.Leaks = e.leaks
			res.CacheHit = true
			if e.stats != nil {
				res.Stats = e.stats.Clone()
				j.Opts.Collector.Replay(e.stats)
			}
			return res
		}
	}
	if res.Err = p.acquire(ctx); res.Err != nil {
		return res
	}
	held = true
	prog := j.Prog
	if prog == nil {
		var err error
		var cstats *obs.Stats
		prog, cstats, err = p.compile(j.Source, j.MaxUnroll, j.Passes)
		if err != nil {
			res.Err = err
			return res
		}
		// Replay the (possibly cached) compilation's stats so instrumented
		// jobs get the full document: shape, passes, then analysis phases.
		j.Opts.Collector.Replay(cstats)
	}
	res.Prog = prog
	// The job and mode labels make a CPU profile of a batch attributable:
	// samples group by which benchmark and pipeline they burned time in.
	pprof.Do(ctx, pprof.Labels("job", j.Name, "mode", modeLabel(j.Mode)), func(ctx context.Context) {
		switch j.Mode {
		case ModeSideChannel:
			rep, err := sidechannel.AnalyzeContext(ctx, prog, j.Opts)
			if err != nil {
				res.Err = err
				return
			}
			res.Leaks = rep
			res.Analysis = rep.Analysis
		case ModeICache:
			res.Analysis, res.Err = core.AnalyzeInstructionCacheContext(ctx, prog, j.Opts)
		default:
			res.Analysis, res.Err = core.AnalyzeContext(ctx, prog, j.Opts)
		}
	})
	if res.Err == nil {
		res.Stats = j.Opts.Collector.Snapshot()
		if cacheable {
			p.reportPut(rkey, &reportEntry{
				prog:     res.Prog,
				analysis: res.Analysis,
				leaks:    res.Leaks,
				stats:    res.Stats,
			})
		}
	}
	return res
}

// acquire takes a worker slot and counts the job as running, waiting for a
// slot unless ctx ends first. runJob gives the slot back when the job ends.
func (p *Pool) acquire(ctx context.Context) error {
	select {
	case p.slots <- struct{}{}:
		p.running.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// modeLabel names a Mode for profiler labels.
func modeLabel(m Mode) string {
	switch m {
	case ModeSideChannel:
		return "sidechannel"
	case ModeICache:
		return "icache"
	}
	return "analyze"
}

// progKeyFor computes the program tier's content key.
func (p *Pool) progKeyFor(src string, maxUnroll int, runPasses bool) progKey {
	return progKey{hash: sha256.Sum256([]byte(src)), maxUnroll: maxUnroll, passes: runPasses}
}

// compile parses and lowers source through the cache. Concurrent requests
// for the same (source, options) compile once and share the result — and its
// compile-time stats snapshot, so cached compilations still produce full
// observability documents.
func (p *Pool) compile(src string, maxUnroll int, runPasses bool) (*ir.Program, *obs.Stats, error) {
	key := p.progKeyFor(src, maxUnroll, runPasses)
	p.mu.Lock()
	e, ok := p.progs.get(key)
	if ok {
		p.hits++
	} else {
		p.misses++
		e = &progEntry{}
		p.progs.put(key, e)
	}
	p.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("compile panicked: %v", r)
			}
		}()
		e.prog, e.stats, e.err = Compile(src, maxUnroll, runPasses)
	})
	return e.prog, e.stats, e.err
}

// Compile is the uncached compile pipeline behind the pool's program cache
// and specabsint.CompileOpts: it parses src, lowers it (maxUnroll > 0
// overrides the lowering's unroll cap) and, when runPasses is set, runs the
// pass pipeline. The returned snapshot holds the parse/lower/passes phases,
// each pass's effect and the program's shape.
func Compile(src string, maxUnroll int, runPasses bool) (*ir.Program, *obs.Stats, error) {
	col := obs.NewCollector()
	var ast *source.Program
	var err error
	col.Phase("parse", func() { ast, err = source.Parse(src) })
	if err != nil {
		return nil, nil, err
	}
	opts := lower.DefaultOptions()
	if maxUnroll > 0 {
		opts.MaxUnroll = maxUnroll
	}
	var prog *ir.Program
	col.Phase("lower", func() { prog, err = lower.Lower(ast, opts) })
	if err != nil {
		return nil, nil, err
	}
	if runPasses {
		var pres *passes.Result
		col.Phase("passes", func() { pres, err = passes.Run(prog, passes.Default()) })
		if err != nil {
			return nil, nil, err
		}
		for _, ps := range pres.Stats {
			col.AddPass(ps.Name, ps.Changed)
		}
	}
	col.SetProgram(ProgramStats(prog))
	return prog, col.Snapshot(), nil
}

// ProgramStats summarizes the IR shape after lowering and passes.
func ProgramStats(prog *ir.Program) obs.ProgramStats {
	return obs.ProgramStats{
		Blocks:           len(prog.Blocks),
		Instrs:           prog.InstrCount(),
		Symbols:          len(prog.Symbols),
		MemAccesses:      prog.MemAccessCount(),
		CondBranches:     prog.CondBranchCount(),
		ResolvedBranches: prog.ResolvedBranchCount(),
	}
}
