// Package wcet estimates worst-case execution time from the (speculative)
// cache analysis: every memory access proved always-hit costs the hit
// latency, every other access is charged the miss penalty, and the bound is
// the longest path from entry along effective successors (ir.Block.
// EffectiveSuccs), the edges an execution can take: a resolved branch is an
// unconditional jump, so no execution enters its dead side. This is the first
// application of the paper (§2.1, §7.2): an analysis that ignores
// speculation under-counts misses and can certify a deadline the hardware
// then breaks.
package wcet

import (
	"fmt"

	"specabsint/internal/cache"
	"specabsint/internal/cfg"
	"specabsint/internal/core"
	"specabsint/internal/ir"
)

// CostModel assigns cycle costs.
type CostModel struct {
	BaseLatency int64 // per instruction
	HitLatency  int64 // per always-hit access (added to base)
	MissPenalty int64 // per potentially-missing access (added to base)
}

// DefaultCosts mirrors the simulator's default latencies.
func DefaultCosts() CostModel {
	return CostModel{BaseLatency: 1, HitLatency: 1, MissPenalty: 100}
}

// Estimate summarizes the timing analysis of one program.
type Estimate struct {
	// Access classification counts over architectural flows.
	Accesses     int
	AlwaysHits   int
	AlwaysMisses int
	Unknown      int
	// Misses is the paper's #Miss: accesses not proved always-hit.
	Misses int
	// SpecMisses is the paper's #SpMiss: wrong-path accesses not proved
	// always-hit (masked by the pipeline but occupying the memory system).
	SpecMisses int
	// WorstCaseCycles bounds the longest architectural path, or -1 when the
	// CFG still contains loops (unbounded without loop-bound annotations).
	WorstCaseCycles int64
	// SpecExtraCycles pessimistically charges the speculative misses.
	SpecExtraCycles int64
}

// String renders the estimate.
func (e Estimate) String() string {
	wc := "unbounded (cyclic CFG)"
	if e.WorstCaseCycles >= 0 {
		wc = fmt.Sprintf("%d cycles (+%d speculative)", e.WorstCaseCycles, e.SpecExtraCycles)
	}
	return fmt.Sprintf("accesses=%d hits=%d misses=%d specMisses=%d wcet=%s",
		e.Accesses, e.AlwaysHits, e.Misses, e.SpecMisses, wc)
}

// Estimate computes the timing summary from a completed cache analysis.
func New(res *core.Result, costs CostModel) Estimate {
	est := Estimate{
		Accesses:   res.AccessCount(),
		Misses:     res.MissCount(),
		SpecMisses: res.SpecMissCount(),
	}
	for _, a := range res.Access {
		switch a.Class {
		case cache.AlwaysHit:
			est.AlwaysHits++
		case cache.AlwaysMiss:
			est.AlwaysMisses++
		default:
			est.Unknown++
		}
	}
	est.WorstCaseCycles = longestPath(res, costs)
	est.SpecExtraCycles = int64(est.SpecMisses) * costs.MissPenalty
	return est
}

// longestPath computes the maximum-cost entry-to-exit path along effective
// successors, or -1 when a cycle joins the blocks they reach.
func longestPath(res *core.Result, costs CostModel) int64 {
	order, cyclic := effectiveOrder(res.Prog)
	if cyclic {
		return -1
	}
	// A topological order reaches every block after all its predecessors.
	dist := make([]int64, len(res.Prog.Blocks))
	var worst int64
	for _, b := range order {
		block := res.Prog.Block(b)
		total := dist[b] + blockCost(res, costs, block)
		succs := block.EffectiveSuccs()
		if len(succs) == 0 {
			worst = max(worst, total)
		}
		for _, s := range succs {
			dist[s] = max(dist[s], total)
		}
	}
	return worst
}

// effectiveOrder returns the blocks reachable from entry along effective
// successors in a weak topological order (cfg.WTOOf), which is a
// topological order when no cycle joins them, and whether one does.
func effectiveOrder(prog *ir.Program) (order []ir.BlockID, cyclic bool) {
	w := cfg.WTOOf(len(prog.Blocks), prog.Entry, func(b ir.BlockID) []ir.BlockID {
		return prog.Block(b).EffectiveSuccs()
	})
	var flatten func(elems []cfg.WTOElem)
	flatten = func(elems []cfg.WTOElem) {
		for _, el := range elems {
			order = append(order, el.Block)
			if el.Comp != nil {
				flatten(el.Comp.Body)
			}
		}
	}
	flatten(w.Sequence)
	return order, w.NumComponents > 0
}
