package wcet

import (
	"slices"

	"specabsint/internal/cache"
	"specabsint/internal/cfg"
	"specabsint/internal/core"
	"specabsint/internal/ir"
)

// BoundOptions supplies loop-iteration bounds for cyclic CFGs. Loops the
// front end could fully unroll never reach this point; the remaining loops
// are data-dependent (the paper's quantl search loop is the canonical case),
// so their bounds must come from the user — exactly as WCET tools require.
type BoundOptions struct {
	// LoopBounds maps a loop header block to the maximum number of times
	// its body can execute.
	LoopBounds map[ir.BlockID]int64
	// DefaultLoopBound applies to loops without an explicit entry. Zero
	// means "unknown": any unbounded loop makes the estimate -1.
	DefaultLoopBound int64
	// Persistence, when non-nil, is an AnalyzePersistence result over the
	// same program and options. Accesses it proves persistent ("first
	// miss") are charged the hit latency on every path plus one single
	// miss penalty overall — the standard first-miss accounting.
	Persistence *core.Result
}

// NewWithBounds computes the timing estimate like New, but bounds cyclic
// CFGs using per-loop iteration limits: each natural loop is contracted —
// innermost first — into a single node charged bound × (its body's longest
// acyclic path). Like New it follows effective successors from entry, so a
// loop no execution can enter or repeat, such as one behind a resolved
// branch's dead edge, needs no bound. The result over-approximates every
// execution that respects the bounds.
func NewWithBounds(res *core.Result, costs CostModel, bounds BoundOptions) Estimate {
	est := New(res, costs)
	if est.WorstCaseCycles >= 0 {
		return est // already acyclic
	}
	est.WorstCaseCycles = boundedLongestPath(res, costs, bounds)
	return est
}

// boundedLongestPath contracts loops innermost-first and then runs the
// acyclic longest-path over the contracted graph. Returns -1 when a loop
// has no bound.
func boundedLongestPath(res *core.Result, costs CostModel, bounds BoundOptions) int64 {
	g := res.Graph
	n := len(res.Prog.Blocks)

	// Per-block base cost; persistent accesses cost a hit per traversal
	// plus a single one-time miss added at the end.
	var oneTime int64
	cost := make([]int64, n)
	for _, b := range res.Prog.Blocks {
		c, extra := blockCostPersist(res, costs, b, bounds.Persistence)
		cost[b.ID] = c
		oneTime += extra
	}

	// super[b] is the node b is contracted into; find follows the chain.
	super := make([]int, n)
	for i := range super {
		super[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for super[x] != x {
			super[x] = super[super[x]]
			x = super[x]
		}
		return x
	}

	// Current edge set (rebuilt after each contraction).
	type edgeSet map[int]map[int]bool
	edges := edgeSet{}
	addEdge := func(u, v int) {
		if u == v {
			return
		}
		if edges[u] == nil {
			edges[u] = map[int]bool{}
		}
		edges[u][v] = true
	}
	order, _ := effectiveOrder(res.Prog)
	reached := make([]bool, n)
	for _, b := range order {
		reached[b] = true
		for _, s := range res.Prog.Block(b).EffectiveSuccs() {
			addEdge(int(b), int(s))
		}
	}

	// Only loops with a back edge an execution can take are contracted.
	loops := slices.DeleteFunc(g.NaturalLoops(g.Dominators()), func(l *cfg.Loop) bool {
		return !slices.ContainsFunc(l.Latches, func(t ir.BlockID) bool {
			return reached[t] && slices.Contains(res.Prog.Block(t).EffectiveSuccs(), l.Header)
		})
	})
	// Innermost first: smaller bodies are contained in larger ones.
	for i := 0; i < len(loops); i++ {
		for j := i + 1; j < len(loops); j++ {
			if len(loops[j].Body) < len(loops[i].Body) {
				loops[i], loops[j] = loops[j], loops[i]
			}
		}
	}

	for _, loop := range loops {
		bound, ok := bounds.LoopBounds[loop.Header]
		if !ok {
			bound = bounds.DefaultLoopBound
		}
		if bound <= 0 {
			return -1
		}
		header := find(int(loop.Header))
		body := map[int]bool{}
		for _, b := range loop.Body {
			body[find(int(b))] = true
		}
		// Longest acyclic path within the body starting at the header,
		// ignoring edges back to the header.
		bodyMax := longestWithin(header, body, edges, cost, find)
		// Contract: every body node merges into the header, which now
		// carries the whole loop's bounded cost.
		for b := range body {
			if b != header {
				super[b] = header
			}
		}
		cost[header] = bound * bodyMax
		// Rebuild edges under the new contraction, dropping self-loops.
		newEdges := edgeSet{}
		for u, vs := range edges {
			fu := find(u)
			for v := range vs {
				fv := find(v)
				if fu != fv {
					if newEdges[fu] == nil {
						newEdges[fu] = map[int]bool{}
					}
					newEdges[fu][fv] = true
				}
			}
		}
		edges = newEdges
	}

	// Longest path over the contracted graph (now acyclic if all loops were
	// natural; a residual cycle means irreducible flow — give up).
	entry := find(int(res.Prog.Entry))
	total, ok := dagLongest(entry, edges, cost)
	if !ok {
		return -1
	}
	return total + oneTime
}

// blockCostPersist charges a block like blockCost, but accesses the
// persistence analysis proves first-miss are charged HitLatency on the path
// and contribute one MissPenalty to the one-time total.
func blockCostPersist(res *core.Result, costs CostModel, b *ir.Block, persist *core.Result) (c, oneTime int64) {
	if persist == nil {
		return blockCost(res, costs, b), 0
	}
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
		if p, ok := persist.Access[in.ID]; ok && p.Class == cache.AlwaysHit {
			// First miss: hit on the recurring path, one miss in total per
			// candidate block.
			c += costs.HitLatency
			oneTime += int64(p.Acc.Count) * costs.MissPenalty
			continue
		}
		c += costs.MissPenalty
	}
	return c, oneTime
}

// longestWithin computes the longest path from start through the node set,
// ignoring edges that leave the set or return to start.
func longestWithin(start int, body map[int]bool, edges map[int]map[int]bool, cost []int64, find func(int) int) int64 {
	memo := map[int]int64{}
	visiting := map[int]bool{}
	var dfs func(u int) int64
	dfs = func(u int) int64 {
		if v, ok := memo[u]; ok {
			return v
		}
		if visiting[u] {
			// Residual cycle inside the body (e.g. continue edges): its
			// iterations are already charged by the bound; cut it here.
			return 0
		}
		visiting[u] = true
		best := int64(0)
		for v := range edges[u] {
			fv := find(v)
			if fv == start || !body[fv] {
				continue
			}
			if c := dfs(fv); c > best {
				best = c
			}
		}
		visiting[u] = false
		total := cost[u] + best
		memo[u] = total
		return total
	}
	return dfs(start)
}

// dagLongest computes the longest path from entry; ok is false when a cycle
// survives contraction.
func dagLongest(entry int, edges map[int]map[int]bool, cost []int64) (int64, bool) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[int]int{}
	memo := map[int]int64{}
	cyclic := false
	var dfs func(u int) int64
	dfs = func(u int) int64 {
		switch color[u] {
		case gray:
			cyclic = true
			return 0
		case black:
			return memo[u]
		}
		color[u] = gray
		best := int64(0)
		for v := range edges[u] {
			if c := dfs(v); c > best {
				best = c
			}
		}
		color[u] = black
		memo[u] = cost[u] + best
		return memo[u]
	}
	total := dfs(entry)
	if cyclic {
		return -1, false
	}
	return total, true
}

// blockCost charges one block's instructions under the cost model.
func blockCost(res *core.Result, costs CostModel, b *ir.Block) int64 {
	var c int64
	for i := range b.Instrs {
		in := &b.Instrs[i]
		c += costs.BaseLatency
		if in.Op != ir.OpLoad && in.Op != ir.OpStore {
			continue
		}
		if a, ok := res.Access[in.ID]; ok && a.Class == cache.AlwaysHit {
			c += costs.HitLatency
		} else {
			c += costs.MissPenalty
		}
	}
	return c
}
