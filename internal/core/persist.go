package core

import (
	"context"

	"specabsint/internal/ir"
)

// AnalyzePersistence runs the speculation-aware *persistence* analysis
// ("first miss"): an access classified AlwaysHit here misses at most once
// across the whole execution — even if the must analysis cannot prove it
// always hits. The classification feeds the loop-bounded WCET estimate:
// a persistent access inside a loop costs one miss plus hits, instead of a
// miss per iteration. Speculative lanes and rollback states participate
// exactly as in the must analysis, so the verdicts remain sound under
// speculation. Dynamic depth bounding keys off must-hit facts, which the
// persistence domain does not provide, so the conservative window is used.
func AnalyzePersistence(prog *ir.Program, opts Options) (*Result, error) {
	return AnalyzePersistenceContext(context.Background(), prog, opts)
}

// AnalyzePersistenceContext is AnalyzePersistence with cancellation.
func AnalyzePersistenceContext(ctx context.Context, prog *ir.Program, opts Options) (*Result, error) {
	return analyze(ctx, prog, opts, persistence)
}
