package core

import (
	"context"

	"specabsint/internal/cfg"
	"specabsint/internal/interval"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
)

// AnalyzePersistence runs the speculation-aware *persistence* analysis
// ("first miss"): an access classified AlwaysHit here misses at most once
// across the whole execution — even if the must analysis cannot prove it
// always hits. The classification feeds the loop-bounded WCET estimate:
// a persistent access inside a loop costs one miss plus hits, instead of a
// miss per iteration. Speculative lanes and rollback states participate
// exactly as in the must analysis, so the verdicts remain sound under
// speculation.
func AnalyzePersistence(prog *ir.Program, opts Options) (*Result, error) {
	return AnalyzePersistenceContext(context.Background(), prog, opts)
}

// AnalyzePersistenceContext is AnalyzePersistence with cancellation.
func AnalyzePersistenceContext(ctx context.Context, prog *ir.Program, opts Options) (*Result, error) {
	if err := validateDepths(opts); err != nil {
		return nil, err
	}
	l, err := layout.New(prog, opts.Cache)
	if err != nil {
		return nil, err
	}
	// Dynamic depth bounding keys off must-hit facts, which the persistence
	// domain does not provide; use the conservative window.
	opts.DynamicDepthBounding = false
	g := cfg.New(prog)
	idx := interval.Analyze(g)
	e := newEngine(prog, g, l, idx, opts, dataSteps(prog, l, idx))
	e.dom.Persist = true
	e.dom.Refined = false // the NYoung refinement is a must-analysis rule
	if err := e.run(ctx); err != nil {
		return nil, err
	}
	return e.result(), nil
}
