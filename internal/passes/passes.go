// Package passes is the pre-analysis pass pipeline: an ordered set of
// analysis-preserving IR transformations run after lowering and before the
// speculative fixpoint. The point is the paper's own lever — prune statically
// decidable work before the expensive part: §6.2 bounds speculation depth via
// must-hit branch conditions, §6.4 keeps colored lanes independent, and here
// we stop lanes from being spawned at all for branches whose outcome is a
// compile-time constant.
//
// Passes, in order:
//
//  1. sccp — sparse conditional constant propagation over registers and
//     value-tracked memory scalars (the same memory model the interval
//     analysis uses, ir.Symbol.EntryValue: secret scalars and
//     uninitialized scalars are unknown, initialized scalars start at
//     their initializer, array contents are never tracked). It folds with
//     ir.EvalBinop and ir.EvalUnop, what the simulator executes. Register
//     uses whose value is a proven constant are rewritten to constant
//     operands in place. Block entry environments share one slab, with
//     slots for cross-block registers (ir.Program.CrossRegs, as in the
//     interval analysis and DCE) and scalars.
//  2. copyprop — block-local forward copy propagation, replacing uses of
//     mov destinations with the mov source so the mov becomes dead. Write
//     stamps kill a copy whose source is overwritten in O(1).
//  3. resolve — marks CondBrs whose condition operand is now a constant as
//     Resolved (direction TakenTrue). Resolution never rewrites the CFG:
//     both edges stay, so dominator/post-dominator geometry and every
//     vn_stop placement are unchanged; the engine, interval analysis, and
//     simulator simply follow only the taken edge and spawn no speculative
//     lane for the branch.
//  4. dce — dead-register elimination, replacing pure dead instructions with
//     Nop. Nop-replacement (rather than removal) keeps instruction ids,
//     speculation budgets, the fetch stream, and cycle counts identical, so
//     it has no memory or i-cache footprint by construction. Loads, stores,
//     terminators, and potentially-faulting divisions are never eliminated.
//     A second round runs only after a round nopped a reader of a
//     cross-block register, the one way a round can leave a definition
//     dead. Every analysis model, the instruction cache's included,
//     analyzes the same compilation.
//
// Every transformation keeps the instruction-id assignment (Finalize is
// never re-run) so per-access analysis results remain comparable across
// passes-on/passes-off runs of the same program.
package passes

import (
	"fmt"

	"specabsint/internal/ir"
	"specabsint/internal/irverify"
)

// Options configures the pipeline. It has no fields: every run applies all
// four passes in order and verifies the result. Run keeps the parameter, and
// Default its constructor, so existing callers need not change.
type Options struct{}

// Default returns the standard pipeline.
func Default() Options { return Options{} }

// PassStat records one pass's effect.
type PassStat struct {
	Name string
	// Changed counts rewritten operands (sccp, copyprop), marked branches
	// (resolve), or inserted nops (dce).
	Changed int
}

// Result summarizes a pipeline run.
type Result struct {
	Stats []PassStat
	// FoldedOperands counts register operands rewritten to constants.
	FoldedOperands int
	// ResolvedBranches counts CondBrs marked Resolved.
	ResolvedBranches int
	// NopsInserted counts instructions replaced by Nop.
	NopsInserted int
}

// Changed reports whether any pass modified the program.
func (r *Result) Changed() bool {
	return r.FoldedOperands+r.ResolvedBranches+r.NopsInserted > 0
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("passes: folded %d operands, resolved %d branches, nopped %d instrs",
		r.FoldedOperands, r.ResolvedBranches, r.NopsInserted)
}

// Run executes the pipeline on prog in place and verifies the result. The
// program must already be structurally valid (lowering verifies its own
// output); a verification failure afterwards means a pass bug, possibly one
// that folded away the evidence of a lowering bug, and is returned as an
// error wrapping the irverify diagnostics.
func Run(prog *ir.Program, _ Options) (*Result, error) {
	folded := sccp(prog)
	copied := copyProp(prog)
	resolved := resolveBranches(prog)
	nopped := dce(prog)
	if err := irverify.Verify(prog); err != nil {
		return nil, fmt.Errorf("pass pipeline produced invalid IR: %w", err)
	}
	return &Result{
		Stats: []PassStat{
			{Name: "sccp", Changed: folded},
			{Name: "copyprop", Changed: copied},
			{Name: "resolve", Changed: resolved},
			{Name: "dce", Changed: nopped},
		},
		FoldedOperands:   folded + copied,
		ResolvedBranches: resolved,
		NopsInserted:     nopped,
	}, nil
}

// resolveBranches marks every reachable CondBr whose condition operand is a
// constant (after sccp/copyprop folding, or straight from lowering) as
// Resolved with the matching direction. The instruction itself is otherwise
// untouched.
func resolveBranches(prog *ir.Program) int {
	n := 0
	for _, b := range prog.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr || t.Resolved || !t.A.IsConst {
			continue
		}
		if t.TrueTarget == t.FalseTarget {
			// Degenerate both-edges-same branch; the verifier rejects these,
			// so never mint one into a Resolved marker.
			continue
		}
		t.Resolved = true
		t.TakenTrue = t.A.Const != 0
		n++
	}
	return n
}
