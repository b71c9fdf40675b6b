// Package runner is the batch engine: a worker pool that runs independent
// jobs, each a program plus the caller's analysis of it, across CPUs. The
// paper's §6.4 optimization makes colored speculative states independent
// per branch, and its evaluation runs every benchmark under many
// configurations (strategies × depths × cache geometries) — an
// embarrassingly parallel workload. The pool knows no analysis: a Job
// carries its own Analyze function, and the pool adds the operational
// pieces a long corpus sweep or a daemon needs:
//
//   - cancellation: the job's context reaches Analyze, whose fixpoint can
//     poll it, so a canceled batch stops mid-analysis rather than after the
//     current job;
//   - panic isolation: a crash in one job becomes that job's *PanicError
//     instead of killing the whole batch;
//   - a two-tier content-addressed cache (see cache.go): compiled programs
//     keyed by (source hash, lowering options), and — for jobs with a Key —
//     finished values keyed additionally by that Key, so a resubmitted
//     request skips compiling and analyzing entirely;
//   - one worker bound across calls: a job holds one of the pool's worker
//     slots while it compiles and analyzes, however many Run calls are in
//     flight, and a report-cache hit needs no slot;
//   - one result per job, streamed in completion order (Run) or returned in
//     job order (RunAll);
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

	"specabsint/internal/ir"
	"specabsint/internal/lower"
	"specabsint/internal/obs"
	"specabsint/internal/passes"
	"specabsint/internal/source"
)

// Job is one unit of work: a program (source or pre-compiled) and the
// analysis to run on it, whose result has type V.
type Job[V any] struct {
	// Name labels the job in results, error messages and CPU profiles.
	Name string
	// Source is MiniC source, compiled through the pool's program cache.
	// Ignored when Prog is set.
	Source string
	// MaxUnroll caps constant-trip loop unrolling at lowering time; it is
	// part of the cache key. 0 uses the lowering default.
	MaxUnroll int
	// Passes runs the analysis-preserving pass pipeline (internal/passes)
	// after lowering; it is part of the cache key. Every analysis model
	// analyzes the same compilation: DCE replaces instructions with nops
	// and removes none, so an instruction-cache analysis fetches the same
	// stream.
	Passes bool
	// Prog, when non-nil, is analyzed directly (no compile, no cache).
	Prog *ir.Program
	// Analyze runs the job's analysis on the compiled program. compiled is
	// the compilation's stats snapshot (program shape, pass effects,
	// parse/lower/passes phases), shared by every job of that compilation
	// and so read-only; nil for Prog jobs. Bind adapts an entry point such
	// as core.AnalyzeContext.
	Analyze func(ctx context.Context, prog *ir.Program, compiled *obs.Stats) (V, error)
	// Key, when non-nil, enables the report tier for a Source job: the job
	// is cached under its program key plus Key, so a later job with the same
	// source, lowering options and Key is answered with the stored Value
	// without compiling or analyzing, and a miss stores its Value. Key must
	// be comparable and determine what Analyze computes; jobs whose Values
	// differ in type must use distinct key types. Only successful runs are
	// stored.
	Key any
}

// Result is one completed job.
type Result[V any] struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Name echoes the job's label.
	Name string
	// Value is what the job's Analyze returned. On a cache hit it is the
	// stored Value, shared by every hit on the same entry.
	Value V
	// Elapsed is the job's wall-clock time (compile + analysis).
	Elapsed time.Duration
	// CacheHit reports that Value was served from the report cache (nothing
	// was compiled or analyzed for this job).
	CacheHit bool
	// Err is the job's failure, if any: a compile or analysis error, the
	// context error for canceled jobs (also those canceled before they
	// started), or a *PanicError for crashed ones.
	Err error
}

// Bind adapts an analysis entry point that takes its options last, such as
// core.AnalyzeContext, to a Job's Analyze: it runs analyze(ctx, prog, opts)
// and ignores the compile-time stats.
func Bind[V, O any](analyze func(context.Context, *ir.Program, O) (V, error), opts O) func(context.Context, *ir.Program, *obs.Stats) (V, error) {
	return func(ctx context.Context, prog *ir.Program, _ *obs.Stats) (V, error) {
		return analyze(ctx, prog, opts)
	}
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
	// effects, parse/lower/passes phases), handed to every job's Analyze so
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

	// Lifecycle metrics, atomics so Snapshot never contends with jobs. A
	// job counts as submitted when Run starts it, running while it holds a
	// worker slot, and completed once its result is ready, so Submitted ==
	// Completed + Running + queued at every instant.
	submitted atomic.Int64
	completed atomic.Int64
	running   atomic.Int64
	panics    atomic.Int64
	canceled  atomic.Int64

	mu     sync.Mutex
	progs  *lruCache[progKey, *progEntry]
	hits   int64
	misses int64

	reports      *lruCache[reportKey, any]
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
		reports: newLRU[reportKey, any](DefaultReportCacheBound),
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

// Run starts every job on the pool's worker slots, which concurrent calls
// share, and streams one result per job in completion order. The returned
// channel has room for every result and is closed after the last, so a
// caller that stops reading strands no goroutine. When ctx is canceled, jobs
// not yet started and jobs waiting for a worker slot return the context
// error at once, and running jobs as soon as their analysis observes it.
func Run[V any](ctx context.Context, p *Pool, jobs []Job[V]) <-chan Result[V] {
	p.submitted.Add(int64(len(jobs)))
	out := make(chan Result[V], len(jobs))
	if len(jobs) == 0 {
		close(out)
		return out
	}
	var left atomic.Int64
	left.Store(int64(len(jobs)))
	for i := range jobs {
		go func() {
			out <- runJob(ctx, p, i, jobs[i])
			if left.Add(-1) == 0 {
				close(out)
			}
		}()
	}
	return out
}

// RunAll runs the batch and returns one result per job, in job order —
// deterministic however the jobs interleaved. Per-job failures (including
// cancellation) are reported in Result.Err.
func RunAll[V any](ctx context.Context, p *Pool, jobs []Job[V]) []Result[V] {
	results := make([]Result[V], len(jobs))
	for r := range Run(ctx, p, jobs) {
		results[r.Index] = r
	}
	return results
}

// runJob executes one job with panic isolation. It holds a worker slot
// only to compile and analyze: a report-cache hit is answered without one.
func runJob[V any](ctx context.Context, p *Pool, idx int, j Job[V]) (res Result[V]) {
	res = Result[V]{Index: idx, Name: j.Name}
	start := time.Now()
	held := false
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			res = Result[V]{
				Index: idx,
				Name:  j.Name,
				Err:   &PanicError{Job: j.Name, Value: r, Stack: debug.Stack()},
			}
		}
		res.Elapsed = time.Since(start)
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
	// Report tier: identical successful requests are answered without
	// compiling or running anything. A job looks twice: without a slot,
	// and again once it holds one, since a twin may have stored the value
	// while it waited. Only the last look counts as the job's hit or miss.
	var rkey reportKey
	cacheable := j.Key != nil && j.Prog == nil
	hit := func(count bool) bool {
		v, ok := p.reportGet(rkey, count)
		if ok {
			res.Value, res.CacheHit = v.(V), true
		}
		return ok
	}
	if cacheable {
		rkey = reportKey{prog: progKeyFor(j.Source, j.MaxUnroll, j.Passes), key: j.Key}
		if hit(false) {
			return res
		}
	}
	if res.Err = p.acquire(ctx); res.Err != nil {
		return res
	}
	held = true
	start = time.Now() // Elapsed leaves out the wait for a slot
	if cacheable && hit(true) {
		return res
	}
	prog := j.Prog
	var compiled *obs.Stats
	if prog == nil {
		var err error
		if prog, compiled, err = p.compile(j.Source, j.MaxUnroll, j.Passes); err != nil {
			res.Err = err
			return res
		}
	}
	// The job label makes a CPU profile of a batch attributable: samples
	// group by the job they burned time in.
	pprof.Do(ctx, pprof.Labels("job", j.Name), func(ctx context.Context) {
		res.Value, res.Err = j.Analyze(ctx, prog, compiled)
	})
	if res.Err == nil && cacheable {
		p.reportPut(rkey, res.Value)
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

// progKeyFor computes the program tier's content key.
func progKeyFor(src string, maxUnroll int, runPasses bool) progKey {
	return progKey{hash: sha256.Sum256([]byte(src)), maxUnroll: maxUnroll, passes: runPasses}
}

// compile parses and lowers source through the cache. Concurrent requests
// for the same (source, options) compile once and share the result — and its
// compile-time stats snapshot, so cached compilations still produce full
// observability documents.
func (p *Pool) compile(src string, maxUnroll int, runPasses bool) (*ir.Program, *obs.Stats, error) {
	key := progKeyFor(src, maxUnroll, runPasses)
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
