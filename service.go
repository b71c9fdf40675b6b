package specabsint

import (
	"context"

	"specabsint/internal/obs"
	"specabsint/internal/runner"
)

// PoolSnapshot is the expvar-style state of a Service's worker pool:
// cumulative job counters, instantaneous running/queue gauges, and the
// hit/miss/eviction/size gauges of both content-addressed cache tiers.
type PoolSnapshot = obs.PoolSnapshot

// ServiceConfig sizes a Service. The zero value is ready to use: GOMAXPROCS
// workers and the default cache bounds.
type ServiceConfig struct {
	// Workers is the analysis pool's concurrency; <= 0 selects GOMAXPROCS.
	Workers int
	// ProgramCacheBound bounds the compiled-program cache tier in entries;
	// 0 keeps the default (512), negative disables the bound.
	ProgramCacheBound int
	// ReportCacheBound bounds the report cache tier in entries; 0 keeps the
	// default (4096), negative disables the bound.
	ReportCacheBound int
}

// Service is the long-lived analysis engine behind cmd/specserve: a shared
// worker pool whose two-tier content-addressed cache persists across calls.
// Tier 1 maps SHA-256(source) + lowering configuration to the compiled
// program; tier 2 maps that plus the full analysis configuration to the
// finished Report, stats included, so resubmitting an identical request
// re-runs nothing — not the fixpoint, not the report's construction. Only
// successful analyses are cached; errors always re-run. Every result gets
// its own copy of the Report struct and its Stats, but the Accesses, Leaks
// and SpectreGadgets slices are shared by every request served the same
// entry and must not be modified.
//
// A Service is safe for concurrent use. Unlike AnalyzeBatch (which builds a
// throwaway pool per call), a Service's caches warm up over its lifetime —
// it is the entry point for daemons, not one-shot sweeps.
type Service struct {
	pool *runner.Pool
}

// NewService creates a Service sized by cfg.
func NewService(cfg ServiceConfig) *Service {
	pool := runner.New(cfg.Workers)
	progBound := cfg.ProgramCacheBound
	switch {
	case progBound == 0:
		progBound = runner.DefaultProgramCacheBound
	case progBound < 0:
		progBound = 0 // unbounded
	}
	repBound := cfg.ReportCacheBound
	switch {
	case repBound == 0:
		repBound = runner.DefaultReportCacheBound
	case repBound < 0:
		repBound = 0 // unbounded
	}
	pool.SetCacheBounds(progBound, repBound)
	return &Service{pool: pool}
}

// Analyze runs one cached analysis: source is compiled and analyzed through
// the shared pool, consulting (and on success populating) the report cache.
// The failure, if any, is in BatchResult.Err — same per-job semantics as
// AnalyzeBatch. The report's slices are shared with the cache (see
// BatchResult.Report).
func (s *Service) Analyze(ctx context.Context, name, source string, opts ...Option) BatchResult {
	results, _ := runBatch(ctx, s.pool, []BatchJob{{Name: name, Source: source}}, opts, true)
	return results[0]
}

// AnalyzeBatch is AnalyzeBatch on the shared cached pool: one result per
// job, in job order, per-job failures aggregated into a *BatchError.
func (s *Service) AnalyzeBatch(ctx context.Context, jobs []BatchJob, opts ...Option) ([]BatchResult, error) {
	return runBatch(ctx, s.pool, jobs, opts, true)
}

// Stream runs the jobs on the shared cached pool and delivers one result per
// job in completion order — the streamed-batch endpoint's engine. A job
// canceled before it starts carries the context error, like AnalyzeBatch.
// The channel has room for every result and is closed after the last, so a
// caller that stops reading strands nothing.
func (s *Service) Stream(ctx context.Context, jobs []BatchJob, opts ...Option) <-chan BatchResult {
	results := runner.Run(ctx, s.pool, runnerJobs(jobs, opts, true))
	out := make(chan BatchResult, len(jobs))
	go func() {
		defer close(out)
		for r := range results {
			out <- batchResult(r, true)
		}
	}()
	return out
}

// Snapshot returns the pool's live gauges: job lifecycle counters and both
// cache tiers.
func (s *Service) Snapshot() PoolSnapshot { return s.pool.Snapshot() }

// Drain blocks until every job submitted before the call has completed, or
// ctx expires — the graceful-shutdown path. The caller is responsible for
// stopping new submissions first.
func (s *Service) Drain(ctx context.Context) error { return s.pool.Drain(ctx) }

// PublishExpvar registers the service's live pool snapshot under name in the
// process-wide expvar registry (visible on /debug/vars). Like expvar.Publish
// it panics on duplicate names — publish once, at startup.
func (s *Service) PublishExpvar(name string) { s.pool.PublishExpvar(name) }
