package experiments

import (
	"context"
	"fmt"

	"specabsint/internal/bench"
	"specabsint/internal/core"
	"specabsint/internal/layout"
	"specabsint/internal/runner"
)

// GeomRow is one point of the cache-geometry sweep: potential miss counts
// under both analyses for one cache size.
type GeomRow struct {
	Lines       int
	NonSpecMiss int
	SpecMiss    int
	SpecSpMiss  int
}

// GeometrySweep regenerates the figure-style ablation: how the gap between
// the classic and the speculation-aware analysis varies with cache capacity
// on one benchmark. Small caches thrash either way; very large caches
// absorb the wrong-path pollution; the speculative analysis matters most in
// between — the regime the paper's 512-line configuration sits in.
//
// The benchmark is compiled once; the analyses (one pair per geometry) are
// independent and share the compiled program across the pool's workers.
func GeometrySweep(ctx context.Context, benchName string, lineCounts []int, pool *runner.Pool) ([]GeomRow, error) {
	b, ok := bench.ByName(benchName)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", benchName)
	}
	prog, _, err := runner.Compile(b.Code, 0, false)
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job[*core.Result]
	for _, lines := range lineCounts {
		cfg := layout.CacheConfig{LineSize: paperCache.LineSize, NumSets: 1, Assoc: lines}
		for _, speculative := range []bool{false, true} {
			opts := options(speculative)
			opts.Cache = cfg
			jobs = append(jobs, runner.Job[*core.Result]{
				Name:    fmt.Sprintf("%s@%d/spec=%v", b.Name, lines, speculative),
				Prog:    prog,
				Analyze: runner.Bind(core.AnalyzeContext, opts),
			})
		}
	}
	results, err := collect(runner.RunAll(ctx, orNew(pool), jobs))
	if err != nil {
		return nil, err
	}
	rows := make([]GeomRow, 0, len(lineCounts))
	for i, lines := range lineCounts {
		base, spec := results[2*i], results[2*i+1]
		rows = append(rows, GeomRow{
			Lines:       lines,
			NonSpecMiss: base.Value.MissCount(),
			SpecMiss:    spec.Value.MissCount(),
			SpecSpMiss:  spec.Value.SpecMissCount(),
		})
	}
	return rows, nil
}

// ICacheRow is one line of the instruction-cache extension experiment.
type ICacheRow struct {
	Name        string
	Fetches     int
	NonSpecMiss int
	SpecMiss    int
	SpecSpMiss  int
}

// ICacheTable runs the §3.2 extension — the same speculative analysis over
// the instruction cache — on the WCET suite, batched on pool.
func ICacheTable(ctx context.Context, lines int, pool *runner.Pool) ([]ICacheRow, error) {
	benches := bench.WCETBenchmarks()
	cfg := layout.CacheConfig{LineSize: paperCache.LineSize, NumSets: 1, Assoc: lines}
	var jobs []runner.Job[*core.Result]
	for _, b := range benches {
		for _, speculative := range []bool{false, true} {
			opts := options(speculative)
			opts.Cache = cfg
			jobs = append(jobs, job(fmt.Sprintf("%s/icache/spec=%v", b.Name, speculative),
				b.Code, core.AnalyzeInstructionCacheContext, opts))
		}
	}
	results, err := collect(runner.RunAll(ctx, orNew(pool), jobs))
	if err != nil {
		return nil, err
	}
	rows := make([]ICacheRow, 0, len(benches))
	for i, b := range benches {
		base, spec := results[2*i], results[2*i+1]
		rows = append(rows, ICacheRow{
			Name:        b.Name,
			Fetches:     spec.Value.AccessCount(),
			NonSpecMiss: base.Value.MissCount(),
			SpecMiss:    spec.Value.MissCount(),
			SpecSpMiss:  spec.Value.SpecMissCount(),
		})
	}
	return rows, nil
}
