package specabsint

import (
	"context"
	"time"

	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/obs"
	"specabsint/internal/runner"
)

// BatchJob is one entry of an AnalyzeBatch request.
type BatchJob struct {
	// Name labels the job in results and aggregated errors. Optional but
	// recommended; results also carry the job's index.
	Name string
	// Source is MiniC source, compiled through the batch's shared program
	// cache — repeated jobs over the same source (e.g. a strategy sweep)
	// parse and lower once. Ignored when Prog is set.
	Source string
	// Prog, when non-nil, is analyzed directly.
	Prog *CompiledProgram
	// Options are per-job overrides, applied after the batch-level options.
	Options []Option
}

// BatchResult is one completed batch job.
type BatchResult struct {
	// Index is the job's position in the submitted slice; results from
	// AnalyzeBatch are already in index order.
	Index int
	// Name echoes the job's label.
	Name string
	// Report is the completed analysis; nil when Err is set. Report.Stats is
	// populated when the job ran with WithStats(true). A Service's report
	// shares its Accesses, Leaks and SpectreGadgets with the report cache and
	// with every other result served from it: treat them as read-only.
	Report *Report
	// CacheHit reports the result was served from a Service's report cache
	// without running the analysis (always false for plain AnalyzeBatch).
	CacheHit bool
	// Elapsed is the job's wall-clock time (compile + analysis).
	Elapsed time.Duration
	// Err is the job's failure: a compile or analysis error (errors.As
	// reaches *ParseError), or a cancellation satisfying
	// errors.Is(err, ErrCanceled).
	Err error
}

// runnerJobs lowers BatchJobs into the pool's job form: batch-level opts
// first, per-job overrides on top, analyzed by the pipeline AnalyzeContext
// runs. keyed gives each job a report-cache key: the analysis options and
// whether stats were requested, since a cached report carries stats only
// when its miss run collected them. Lowering options are part of the
// program key, and WithMitigateVerify does not change a report.
func runnerJobs(jobs []BatchJob, base []Option, keyed bool) []runner.Job[*Report] {
	rjobs := make([]runner.Job[*Report], len(jobs))
	for i, j := range jobs {
		cfg := newConfig(base)
		for _, o := range j.Options {
			if o != nil {
				o(&cfg)
			}
		}
		rjobs[i] = runner.Job[*Report]{
			Name:      j.Name,
			Source:    j.Source,
			MaxUnroll: cfg.MaxUnroll,
			Passes:    cfg.Passes,
			Analyze: func(ctx context.Context, prog *ir.Program, compiled *obs.Stats) (*Report, error) {
				return analyzeConfig(ctx, &CompiledProgram{prog: prog, stats: compiled}, cfg)
			},
		}
		if j.Prog != nil {
			rjobs[i].Prog = j.Prog.prog
		}
		if keyed {
			rjobs[i].Key = reportKey{opts: cfg.coreOptions(), stats: cfg.Stats}
		}
	}
	return rjobs
}

// reportKey is a Service job's report-cache key beyond its program.
type reportKey struct {
	opts  core.Options
	stats bool
}

// runBatch runs the jobs on pool and returns one result per job, in job
// order, with the per-job failures aggregated.
func runBatch(ctx context.Context, pool *runner.Pool, jobs []BatchJob, opts []Option, keyed bool) ([]BatchResult, error) {
	results := make([]BatchResult, len(jobs))
	for i, r := range runner.RunAll(ctx, pool, runnerJobs(jobs, opts, keyed)) {
		results[i] = batchResult(r, keyed)
	}
	return results, batchError(results)
}

// batchResult lifts one pool result into the public form, wrapping its
// error. A keyed job's report is the one the report cache holds, so the
// result gets a copy with its own Stats; the access, leak and gadget slices
// stay shared with the cache, read-only.
func batchResult(r runner.Result[*Report], keyed bool) BatchResult {
	br := BatchResult{Index: r.Index, Name: r.Name, Report: r.Value, Elapsed: r.Elapsed, CacheHit: r.CacheHit}
	switch {
	case r.Err != nil:
		br.Err = wrapErr(r.Err)
	case keyed:
		rep := *r.Value
		rep.Stats = rep.Stats.Clone()
		br.Report = &rep
	}
	return br
}

// batchError aggregates per-job failures in job order, deterministic however
// the workers interleaved; nil when every job succeeded.
func batchError(results []BatchResult) error {
	var batchErr *BatchError
	for _, br := range results {
		if br.Err == nil {
			continue
		}
		if batchErr == nil {
			batchErr = &BatchError{}
		}
		batchErr.Failures = append(batchErr.Failures, JobFailure{
			Index: br.Index, Name: br.Name, Err: br.Err,
		})
	}
	if batchErr != nil {
		return batchErr
	}
	return nil
}

// AnalyzeBatch fans the jobs out across GOMAXPROCS workers and returns one
// result per job, in job order. Batch-level opts configure every job;
// per-job BatchJob.Options override them. Failures are isolated per job —
// panics included — and do not stop the rest of the batch; the returned
// error is nil when every job succeeded, and a *BatchError aggregating the
// per-job failures otherwise. Cancelling ctx stops running fixpoints at
// their next iteration and fails the remaining jobs with ErrCanceled.
//
// Analysis results are deterministic: a batch produces exactly the reports
// the equivalent serial AnalyzeContext calls would. Long-lived callers that
// want the batch engine plus the content-addressed report cache should hold
// a Service instead — AnalyzeBatch builds a fresh pool per call.
func AnalyzeBatch(ctx context.Context, jobs []BatchJob, opts ...Option) ([]BatchResult, error) {
	return runBatch(ctx, runner.New(0), jobs, opts, false)
}
