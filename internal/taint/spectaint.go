package taint

import (
	"specabsint/internal/interval"
	"specabsint/internal/ir"
)

// SpecResult holds the speculative-taint facts used for Spectre-v1 style
// leak detection. On a mis-speculated path a bounds check does not protect
// a load: the access reads whatever memory sits at the computed address, so
// its result may be *any* secret in the address space. A later access whose
// address depends on such a value transmits it through the cache.
type SpecResult struct {
	// OOBSources lists Load instructions whose index may exceed the
	// symbol's bounds on some (wrong) path.
	OOBSources []int
	// SpectreSinks lists memory accesses whose element index may depend on
	// a value obtained by an out-of-bounds (wrong-path) load — the
	// transmission gadgets.
	SpectreSinks []int
}

// AnalyzeSpeculative computes the speculative taint: loads that can read out
// of bounds on wrong paths become taint sources, and the taint propagates
// exactly like secret taint (flow-insensitively, covering speculative
// paths). idx supplies the index intervals; they are computed without
// branch-condition refinement, so "may exceed bounds" already accounts for
// mis-speculated guards.
func AnalyzeSpeculative(prog *ir.Program, idx *interval.Result) *SpecResult {
	res := &SpecResult{}
	oob := map[int]bool{}
	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpLoad {
				continue
			}
			if iv := idx.IndexOf(in); iv.Lo < 0 || iv.Hi >= int64(prog.Symbol(in.Sym).Len) {
				res.OOBSources = append(res.OOBSources, in.ID)
				oob[in.ID] = true
			}
		}
	}
	if len(res.OOBSources) == 0 {
		return res
	}
	// The out-of-bounds read itself is the source.
	facts := newResult(prog)
	facts.propagate(prog, oob)

	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if (in.Op == ir.OpLoad || in.Op == ir.OpStore) && facts.tainted(in.Idx) {
				res.SpectreSinks = append(res.SpectreSinks, in.ID)
			}
		}
	}
	return res
}
