package core

import (
	"context"

	"specabsint/internal/ir"
)

// AnalyzeInstructionCache runs the speculation-aware analysis on the
// *instruction* cache: every instruction's fetch touches its code block, and
// wrong-path fetches pollute the i-cache exactly like wrong-path loads
// pollute the d-cache. The paper notes this extension in §3.2; it reuses
// the identical fixpoint machinery — only the access steps change (every
// instruction accesses its statically-known code block), which also makes
// the analysis exact per access (no index uncertainty). The lane budgets
// (laneNeed) are derived from these same fetch steps: a lane into
// register-only code still fetches every instruction it executes.
//
// Dynamic depth bounding is disabled: the speculation window depends on
// *data*-cache residency of the branch condition, which this analysis does
// not track, so the conservative b_m window is used throughout.
func AnalyzeInstructionCache(prog *ir.Program, opts Options) (*Result, error) {
	return AnalyzeInstructionCacheContext(context.Background(), prog, opts)
}

// AnalyzeInstructionCacheContext is AnalyzeInstructionCache with
// cancellation.
func AnalyzeInstructionCacheContext(ctx context.Context, prog *ir.Program, opts Options) (*Result, error) {
	return analyze(ctx, prog, opts, instrCache)
}
