// Package wcet estimates worst-case execution time from the (speculative)
// cache analysis: every memory access proved always-hit costs the hit
// latency, every other access is charged the miss penalty, and the bound is
// the longest path from entry along effective successors (ir.Block.
// EffectiveSuccs), the edges an execution can take: a resolved branch is an
// unconditional jump, so no execution enters its dead side. This is the first
// application of the paper (§2.1, §7.2): an analysis that ignores
// speculation under-counts misses and can certify a deadline the hardware
// then breaks.
//
// The longest path is a timing schema over core.Result.WTO, the weak
// topological order of the effective CFG that the fixpoint swept, read in
// its flat form: a level is a range of WTO.Order, and the body of the
// component headed at position p is the range [p+1, WTO.End[p]). Its
// components are the loops an execution can enter and repeat, a self-loop
// being one with an empty body. Innermost first, each component is charged
// its bound times the longest path from its head through its body, plus the
// one run of its head that leaves the loop, with its nested components
// already contracted into their heads. Every other edge goes forward in the
// order, so one in-order pass per level gives the longest path.
//
// This assumes a reducible CFG, where each component is the natural loop of
// a back edge an execution can take and is entered only at its head. MiniC's
// structured lowering (if/while/for, break/continue, short-circuit
// evaluation, inlining) produces no other kind of loop.
package wcet

import (
	"fmt"

	"specabsint/internal/cache"
	"specabsint/internal/cfg"
	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/machine"
)

// CostModel assigns cycle costs.
type CostModel struct {
	BaseLatency int64 // per instruction
	HitLatency  int64 // per always-hit access (added to base)
	MissPenalty int64 // per potentially-missing access (added to base)
}

// DefaultCosts returns the latencies the simulator charges
// (machine.BaseLatency, HitLatency and MissPenalty).
func DefaultCosts() CostModel {
	return CostModel{BaseLatency: machine.BaseLatency, HitLatency: machine.HitLatency, MissPenalty: machine.MissPenalty}
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

// BoundOptions supplies loop-iteration bounds for cyclic CFGs. Loops the
// front end could fully unroll never reach this point; the remaining loops
// are data-dependent (the paper's quantl search loop is the canonical case),
// so their bounds must come from the user — exactly as WCET tools require.
type BoundOptions struct {
	// LoopBounds maps a loop head, the head of a component of core.Result.
	// WTO, to the maximum number of times its body can execute; its head
	// runs once more, to exit.
	LoopBounds map[ir.BlockID]int64
	// DefaultLoopBound applies to loops without an explicit entry. Zero
	// means "unknown": any unbounded loop makes the estimate -1.
	DefaultLoopBound int64
	// Persistence, when non-nil, is an AnalyzePersistence result over the
	// same program and options. Accesses it proves persistent ("first
	// miss") are charged the hit latency on every path plus one single
	// miss penalty overall — the standard first-miss accounting. An
	// acyclic CFG ignores it.
	Persistence *core.Result
}

// New computes the timing summary from a completed cache analysis. It is
// NewWithBounds with no bounds: WorstCaseCycles is -1 when the CFG has a
// loop an execution can repeat.
func New(res *core.Result, costs CostModel) Estimate {
	return NewWithBounds(res, costs, BoundOptions{})
}

// NewWithBounds computes the timing summary, charging each loop (each
// component of res.WTO) bound × the longest path from its head through its
// body, plus one run of its head, the test that exits, innermost first. Like
// the WTO it follows effective successors from entry, so a loop no execution
// can enter or repeat, such as one behind a resolved branch's dead edge,
// needs no bound. The result over-approximates every execution that respects
// the bounds.
func NewWithBounds(res *core.Result, costs CostModel, bounds BoundOptions) Estimate {
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
	est.WorstCaseCycles = worstCase(res, costs, bounds)
	est.SpecExtraCycles = int64(est.SpecMisses) * costs.MissPenalty
	return est
}

// schema is the timing schema's working state over the WTO.
type schema struct {
	wto    *cfg.WTO
	bounds BoundOptions
	// cost[b] charges one traversal of block b.
	cost []int64
	// dist[b] is the longest path to b's entry from the start of the level
	// that holds b.
	dist []int64
}

// worstCase returns the longest path from entry, or -1 when a loop has no
// bound.
func worstCase(res *core.Result, costs CostModel, bounds BoundOptions) int64 {
	n := len(res.Prog.Blocks)
	s := &schema{
		wto:    res.WTO,
		bounds: bounds,
		cost:   make([]int64, n),
		dist:   make([]int64, n),
	}
	for _, h := range s.wto.Order {
		if s.wto.Head[h] && s.bound(h) <= 0 {
			return -1
		}
	}
	persist := bounds.Persistence
	if s.wto.NumComponents == 0 {
		// Each access runs at most once: first-miss accounting would only
		// add the hit latency to its miss.
		persist = nil
	}
	var once int64
	for _, b := range res.Prog.Blocks {
		c, o := blockCost(res, costs, b, persist)
		s.cost[b.ID] = c
		once += o
	}
	return s.walk(0, len(s.wto.Order)) + once
}

// bound returns the iteration bound of the loop headed by h.
func (s *schema) bound(h ir.BlockID) int64 {
	if b, ok := s.bounds.LoopBounds[h]; ok {
		return b
	}
	return s.bounds.DefaultLoopBound
}

// walk returns the longest path through one WTO level, the positions
// [lo, hi) of the order, along the edges that stay inside it. It visits each
// element once, in order, after every edge into it: a nested component first
// walks its own body and is then charged as one node that leaves by the edges
// of all its blocks. That node costs bound iterations, each the head or a
// path through the body back to it, and the head's last run: a loop whose
// body runs bound times tests its condition bound+1 times.
func (s *schema) walk(lo, hi int) int64 {
	var longest int64
	for p := lo; p < hi; p = s.wto.End[p] {
		b, e := s.wto.Order[p], s.wto.End[p]
		c := s.cost[b]
		if s.wto.Head[b] {
			// The head's edges into the body start the body's paths.
			s.relax(p, p+1, e, c)
			c += s.bound(b) * max(c, s.walk(p+1, e))
		}
		total := s.dist[b] + c
		longest = max(longest, total)
		s.relax(p, e, hi, total)
	}
	return longest
}

// relax raises dist along every edge from a block at positions [from, to) to
// one at positions [to, hi) to total. An edge to an earlier position returns
// to the head of a component holding its source, so this keeps every edge
// that goes forward within the level.
func (s *schema) relax(from, to, hi int, total int64) {
	for q := from; q < to; q++ {
		for _, t := range s.wto.Succs[s.wto.Order[q]] {
			if tp := s.wto.Pos[t]; tp >= to && tp < hi {
				s.dist[t] = max(s.dist[t], total)
			}
		}
	}
}

// blockCost charges one traversal of block b under the cost model. An access
// persist, when non-nil, proves first-miss is charged the hit latency here,
// and its misses, one per candidate cache block, go to once, charged a single
// time overall.
func blockCost(res *core.Result, costs CostModel, b *ir.Block, persist *core.Result) (c, once int64) {
	for i := range b.Instrs {
		in := &b.Instrs[i]
		c += costs.BaseLatency
		if in.Op != ir.OpLoad && in.Op != ir.OpStore {
			continue
		}
		if a, ok := res.Access[in.ID]; ok && a.Class == cache.AlwaysHit {
			c += costs.HitLatency
			continue
		}
		if persist != nil {
			if p, ok := persist.Access[in.ID]; ok && p.Class == cache.AlwaysHit {
				c += costs.HitLatency
				once += int64(p.Acc.Count) * costs.MissPenalty
				continue
			}
		}
		c += costs.MissPenalty
	}
	return c, once
}
