package core

import (
	"cmp"
	"context"
	"slices"

	"specabsint/internal/cache"
	"specabsint/internal/cfg"
	"specabsint/internal/interval"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/obs"
)

// color identifies one speculative flow: branch block + predicted direction
// (§6.4, Algorithm 3: one independent speculative state per color).
type color struct {
	id        int
	branch    ir.BlockID
	predicted bool       // true: the True successor is speculated
	specSucc  ir.BlockID // entry of the speculated side
	otherSucc ir.BlockID // entry of the side rolled back to
	stop      ir.BlockID // vn_stop: immediate post-dominator of branch
}

// laneVal is a wrong-path exploration state with its remaining instruction
// budget. Budgets join by max: exploring deeper than the hardware would
// only over-approximates.
type laneVal struct {
	st     *cache.State
	budget int
}

// laneSlot is one color's lane at a block, with its dirty flag: the lane's
// in-state changed since it was last walked through the block. verdicts
// holds the Classify verdict of each wrong-path access of the slot's last
// walk, which is the walk of its final value once the fixpoint is reached:
// joinLane marks the slot dirty on any change to its state or budget, and
// drainLanes walks every dirty slot. classify reads them instead of walking
// the lane again.
type laneSlot struct {
	color int
	laneVal
	dirty    bool
	verdicts []cache.Classification
}

// ssVerdicts is what one SS flow kept at a block: the Classify verdict of
// each of the block's steps on the flow's last walk through it.
type ssVerdicts struct {
	pid      int
	verdicts []cache.Classification
}

// partition is one SS flow: a color, plus (for per-rollback-block
// partitioning) the block where the rollback occurred.
type partition struct {
	color *color
	src   ir.BlockID // -1 for the merged (JIT) partition
}

type partKey struct {
	colorID int
	src     ir.BlockID
}

type engine struct {
	prog *ir.Program
	g    *cfg.Graph
	l    *layout.Layout
	dom  *cache.Domain
	idx  *interval.Result
	opts Options

	// steps holds every block's pre-resolved accesses, the only form in
	// which the engine sees instructions.
	steps *stepProgram

	S  []*cache.State
	SS []map[int]*cache.State
	// verdictS[n] holds the Classify verdict of each of block n's steps on
	// the last walk of its normal flow, and verdictSS[n] those of the last
	// walk of each SS flow walked through n, one per step, in the order the
	// flows were first walked there. A walk overwrites its slice in place.
	// Every change to a flow marks it dirty and the sweep walks every dirty
	// flow, so once the fixpoint is reached each live flow's last walk was
	// the walk of its final value, and classify reads these verdicts instead
	// of walking the flow again. An SS flow at its vn_stop is never walked
	// and keeps no verdicts (see classify).
	verdictS  [][]cache.Classification
	verdictSS [][]ssVerdicts
	// Lane[n] holds the lanes that have reached n, one slot per color,
	// sorted by color id. A slot is inserted on its color's first joinLane
	// at n, so memory follows the lanes the fixpoint reaches (a handful per
	// block) rather than blocks × colors, and drainLanes and classify visit
	// the reached lanes in ascending color order.
	Lane [][]laneSlot
	// laneDirty is the lane worklist: a min-heap of the wtoPos of every
	// block holding a dirty lane slot, which inLane marks. Lanes need a heap
	// where the sweep needs none, because a lane walks around a loop and its
	// flow lands behind the block it left. A lane depends only on the state
	// it spawned from, never on the flows of the blocks it walks, so
	// drainLanes can finish every lane before the sweep moves on.
	laneDirty []int
	inLane    []bool
	// lanePops counts drainLanes' pops, for its context polls.
	lanePops int

	// dirty flags: which flows at a block changed since last processed.
	dirtyS  []bool
	dirtySS []map[int]bool
	// dirtySSOrder lists each block's dirty SS partitions in the order they
	// became dirty, so process walks them deterministically (map range order
	// would vary run to run, and the semantic counters — join/transfer
	// totals, widening decisions — are pinned as run-to-run deterministic by
	// the stats contract).
	dirtySSOrder [][]int

	colors    []*color
	colorsAt  map[ir.BlockID][]*color
	parts     []partition
	partByKey map[partKey]int

	pdom *cfg.PostDomTree

	// succs[n] is the effective successor list used for all state
	// propagation: for a block ending in a Resolved CondBr only the taken
	// edge carries flow (the emitted branch is unconditional). Dominators,
	// post-dominators, and vn_stop placement keep using the full edge set.
	succs [][]ir.BlockID
	// effReach marks blocks reachable from entry along effective successors;
	// blocks behind a resolved branch's dead edge can be entered neither
	// architecturally nor speculatively, so they spawn no colors.
	effReach []bool

	// pool recycles the engine's transfer/walk/classify scratch states; see
	// cache.Pool for the ownership rules.
	pool *cache.Pool

	changes []int // per-block S-change counts, for phase-1 widening
	// wto is the Bourdoncle ordering of the effective CFG that sweep walks;
	// an acyclic CFG is one top-level sequence with no components.
	wto *cfg.WTO
	// wtoPos[b] is b's position in the flattened WTO, where each component
	// head precedes its body, and wtoAt inverts it. On an acyclic CFG it is
	// a topological order.
	wtoPos []int
	wtoAt  []ir.BlockID
	// classic marks phase 1, the uncertainty pre-pass: lane spawning is off,
	// so the engine converges the cheap classic must/may analysis (normal
	// flow only) before every unresolved branch is re-seeded and lanes
	// spawn once, from near-final states, instead of being re-spawned and
	// re-propagated on every early state change. It is also the one place
	// count-triggered widening fires: joinS widens every change of a loop
	// head's normal state after its first wideningThreshold. Those counts
	// depend on the visit order, so they are taken only here, under the
	// canonical WTO schedule.
	classic bool
	// satRef replaces that widening in phase 2 (nil before): every
	// loop-head contribution is first Saturate'd against satRef — a frozen
	// snapshot of the block's phase-1 state — before being joined. Any
	// dimension a contribution pushes past its classic value jumps straight
	// to the join-absorbing extreme (must age to evicted, shadow age to 1).
	// Because the reference is constant, the saturation is a monotone
	// transform, so the phase-2 system stays monotone and its least fixpoint
	// is identical under any fair visit order — widening never
	// re-introduces schedule dependence. (Widening against the *evolving*
	// previous iterate would: for states seeded at bottom, such as the
	// per-color lanes and per-pid SS flows, whichever contribution lands
	// first would become the reference.) Semantically this is the paper's
	// §6.3 amplification: speculative pollution reaching a loop head is
	// widened to its absorbing worst immediately instead of creeping one age
	// step per fixpoint round.
	satRef []*cache.State
	// laneNeed[b] is the minimum entry budget with which a wrong-path lane
	// entering block b can still transfer at least one memory access
	// (structural: from instruction counts and access positions along
	// effective successors). Spawns with depth < laneNeed[specSucc] are
	// provably invisible — the lane would expire before touching memory,
	// contributing no SpecAccess verdict and no rollback — and are skipped
	// (counted as LanesSkippedCertain). nil under DisableUncertainty, the
	// spawn-everything reference run.
	laneNeed []int
	// loopHeader marks natural-loop headers: widening applies only there
	// (§6.3 targets loops; widening ordinary merge blocks would discard
	// precision that plain joins preserve).
	loopHeader []bool
	iter       int

	// stats accumulates the engine's semantic effort counters in plain
	// fields — no atomics, no indirection — and is copied into the Result
	// once at the end of the run. The fields are deterministic because the
	// whole engine is: the sweep, the lane worklist, the dirty-flow orders,
	// and every join are schedule-free single-goroutine computations.
	stats obs.FixpointStats
}

// newEngine builds an engine over prebuilt access steps (dataSteps for the
// data cache, fetchSteps for the instruction cache).
func newEngine(prog *ir.Program, g *cfg.Graph, l *layout.Layout, idx *interval.Result, opts Options, steps *stepProgram) *engine {
	n := len(prog.Blocks)
	e := &engine{
		prog:         prog,
		g:            g,
		l:            l,
		dom:          &cache.Domain{L: l, Refined: opts.RefinedJoin},
		idx:          idx,
		opts:         opts,
		steps:        steps,
		pool:         cache.NewPool(l.NumBlocks),
		S:            make([]*cache.State, n),
		SS:           make([]map[int]*cache.State, n),
		verdictS:     make([][]cache.Classification, n),
		verdictSS:    make([][]ssVerdicts, n),
		Lane:         make([][]laneSlot, n),
		inLane:       make([]bool, n),
		dirtyS:       make([]bool, n),
		dirtySS:      make([]map[int]bool, n),
		dirtySSOrder: make([][]int, n),
		colorsAt:     map[ir.BlockID][]*color{},
		partByKey:    map[partKey]int{},
		changes:      make([]int, n),
	}
	for i := range e.S {
		e.S[i] = cache.Bottom()
		e.SS[i] = map[int]*cache.State{}
		e.dirtySS[i] = map[int]bool{}
	}
	e.S[prog.Entry] = cache.NewState(l.NumBlocks)
	e.dirtyS[prog.Entry] = true

	e.loopHeader = make([]bool, n)
	for _, loop := range g.NaturalLoops(g.Dominators()) {
		e.loopHeader[loop.Header] = true
	}

	e.succs = make([][]ir.BlockID, n)
	for _, b := range prog.Blocks {
		e.succs[b.ID] = b.EffectiveSuccs()
	}
	e.effReach = effectiveReachable(prog, e.succs)

	if opts.Speculative {
		e.pdom = g.PostDominators()
		for _, b := range prog.Blocks {
			t := b.Terminator()
			// Resolved branches are unconditional jumps in the emitted
			// program: no misprediction, no colors. Blocks only reachable
			// through a resolved branch's dead edge spawn none either — no
			// execution, architectural or wrong-path, can enter them.
			if t == nil || t.Op != ir.OpCondBr || t.Resolved || !e.effReach[b.ID] {
				continue
			}
			stop := e.pdom.ImmediatePostDom(b.ID)
			for _, predicted := range []bool{true, false} {
				c := &color{
					id:        len(e.colors),
					branch:    b.ID,
					predicted: predicted,
					stop:      stop,
				}
				if predicted {
					c.specSucc, c.otherSucc = t.TrueTarget, t.FalseTarget
				} else {
					c.specSucc, c.otherSucc = t.FalseTarget, t.TrueTarget
				}
				e.colors = append(e.colors, c)
				e.colorsAt[b.ID] = append(e.colorsAt[b.ID], c)
			}
		}
	}
	if len(e.colors) > 0 && !opts.DisableUncertainty {
		e.laneNeed = laneNeedBudgets(prog, e.succs, steps)
	}
	return e
}

// laneNeedInf is the laneNeed value for blocks from which no wrong-path
// memory access is reachable at any budget (half of MaxInt so adding a block
// length cannot overflow).
const laneNeedInf = int(^uint(0)>>1) / 2

// laneNeedBudgets solves the min-fixpoint
//
//	need[b] = min(firstAccess(b)+1, len(b.Instrs) + min over succs s of need[s])
//
// mirroring laneWalk's budget semantics exactly: a lane entering b with
// budget B transfers the access at instruction index i iff B >= i+1, and
// continues into a successor with budget B-len(b.Instrs) iff that is
// positive. need[b] is therefore the smallest entry budget at which a lane
// entering b can reach any wrong-path memory access. A fence truncates both
// terms exactly as it truncates laneWalk: only accesses before the block's
// first fence are reachable, and a fenced block has no successor
// continuation (the lane dies at the fence). Both terms come from the access
// steps the lanes walk, so the budgets count whatever the engine treats as
// an access: data loads and stores, or every instruction fetch. The
// recurrence is monotone decreasing from laneNeedInf, so round-robin
// iteration converges.
func laneNeedBudgets(prog *ir.Program, succs [][]ir.BlockID, steps *stepProgram) []int {
	n := len(prog.Blocks)
	need := make([]int, n)
	first := make([]int, n)
	for _, b := range prog.Blocks {
		need[b.ID] = laneNeedInf
		first[b.ID] = laneNeedInf
		if bs := &steps.blocks[b.ID]; len(bs.spec) > 0 {
			first[b.ID] = bs.steps[0].pos + 1
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range prog.Blocks {
			v := first[b.ID]
			if steps.blocks[b.ID].fenceIdx < 0 {
				for _, s := range succs[b.ID] {
					if c := len(b.Instrs) + need[s]; c < v {
						v = c
					}
				}
			}
			if v < need[b.ID] {
				need[b.ID] = v
				changed = true
			}
		}
	}
	return need
}

// effectiveReachable marks blocks reachable from entry along effective
// successor edges.
func effectiveReachable(prog *ir.Program, succs [][]ir.BlockID) []bool {
	reach := make([]bool, len(prog.Blocks))
	stack := []ir.BlockID{prog.Entry}
	reach[prog.Entry] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range succs[n] {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	return reach
}

// ctxCheckInterval is how many sweep steps, and separately how many
// lane-drain pops, pass between context polls.
// One poll is a channel select — cheap, but not free on a loop that runs
// millions of times on large unrolled programs.
const ctxCheckInterval = 256

func (e *engine) run(ctx context.Context) error {
	e.initWTO()
	if !slices.Contains(e.loopHeader, true) {
		// No loop headers in the simplified CFG (the common case after full
		// unrolling): widening cannot fire, so the whole system is a plain
		// monotone iteration and the two-phase split below would only pay
		// its phase-2 re-solve overhead. Solve in one pass; the laneNeed
		// spawn skip still applies.
		return e.sweep(ctx, e.wto.Sequence)
	}
	// Phase 1 — the uncertainty pre-pass, a canonical classic pass. Lane
	// spawning is off: with no lanes there are no rollbacks and hence no SS
	// flows, so this converges exactly the non-speculative must/may
	// fixpoint, with count-triggered widening on the normal flow (see
	// classic). The corpus goldens pin the verdicts this split produces.
	e.classic = true
	if err := e.sweep(ctx, e.wto.Sequence); err != nil {
		return err
	}
	// Phase 2 — speculative completion. Every unresolved branch whose state
	// is live is re-seeded, so lanes spawn once, from the converged classic
	// states where the analysis is actually uncertain, instead of being
	// re-spawned on every intermediate state change (uncertainty-focused
	// speculation). Starting from the phase-1 states, the remaining system
	// is a monotone iteration — joins, transfers, budget maxima, and the
	// reference saturation described on satRef — whose least fixpoint is
	// independent of the visit order in which lane and rollback traffic
	// arrives.
	e.classic = false
	e.satRef = make([]*cache.State, len(e.S))
	for i := range e.satRef {
		if e.loopHeader[i] {
			e.satRef[i] = e.S[i].Clone()
		}
	}
	for _, b := range e.prog.Blocks {
		if len(e.colorsAt[b.ID]) > 0 && !e.S[b.ID].IsBottom {
			e.dirtyS[b.ID] = true
		}
	}
	return e.sweep(ctx, e.wto.Sequence)
}

// intHeapPush and intHeapPop maintain a plain min-heap of ints — the lane
// worklist, where container/heap's interface indirection and per-push boxing
// would show up on the hot path.
func intHeapPush(h *[]int, v int) {
	*h = append(*h, v)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func intHeapPop(h *[]int) int {
	s := *h
	v := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	i := 0
	for {
		min, l, r := i, 2*i+1, 2*i+2
		if l < n && s[l] < s[min] {
			min = l
		}
		if r < n && s[r] < s[min] {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return v
}

// initWTO computes the Bourdoncle ordering over the effective CFG and the
// flattened positions that order the lane worklist.
func (e *engine) initWTO() {
	n := len(e.prog.Blocks)
	e.wto = cfg.WTOOf(n, e.prog.Entry, func(b ir.BlockID) []ir.BlockID {
		return e.succs[b]
	})
	e.stats.WTOComponents = int64(e.wto.NumComponents)
	e.wtoPos = make([]int, n)
	var index func(elems []cfg.WTOElem)
	index = func(elems []cfg.WTOElem) {
		for _, el := range elems {
			e.wtoPos[el.Block] = len(e.wtoAt)
			e.wtoAt = append(e.wtoAt, el.Block)
			if el.Comp != nil {
				index(el.Comp.Body)
			}
		}
	}
	index(e.wto.Sequence)
}

// sweep is Bourdoncle's recursive iteration strategy over one WTO level: it
// visits the level's elements in order and steps each dirty block, and it
// iterates a component — head, then body, recursively — until the head is
// clean, so inner loops stabilize before the outer sequence moves on.
//
// One in-order pass per level suffices because a step dirties only blocks
// the sweep has yet to visit, or the head of a component it is iterating.
// A flow becomes dirty in four places only: process(n) joins into succs[n];
// its vn_stop merge dirties n itself and is used up by the same step; the
// lanes drained after the step all carry n's colors, so their rollbacks land
// at c.otherSucc, a successor of n; and the entry and phase-2 seeds are set
// before a sweep starts. Every successor of n comes later in the WTO or
// heads a component that contains n (cfg.WTOOf).
func (e *engine) sweep(ctx context.Context, elems []cfg.WTOElem) error {
	for _, el := range elems {
		if err := e.step(ctx, el.Block); err != nil {
			return err
		}
		if el.Comp == nil {
			continue
		}
		for {
			if err := e.sweep(ctx, el.Comp.Body); err != nil {
				return err
			}
			if !e.dirty(el.Block) {
				break
			}
			if err := e.step(ctx, el.Block); err != nil {
				return err
			}
		}
	}
	return nil
}

// dirty reports whether a flow at b changed, or was seeded, since b was last
// stepped.
func (e *engine) dirty(b ir.BlockID) bool {
	return e.dirtyS[b] || len(e.dirtySSOrder[b]) > 0
}

// step walks block b's dirty flows, if it has any, and then drains the lanes
// the walk spawned or re-dirtied. Each step is one iteration; lane walks are
// counted by the lane counters instead. Draining before the sweep moves on
// delivers all of a color's rollbacks to the branch's other successor before
// the flows there are walked, so on an acyclic CFG no flow lands behind the
// sweep and each is walked once.
func (e *engine) step(ctx context.Context, b ir.BlockID) error {
	if !e.dirty(b) {
		return nil
	}
	if err := pollCtx(ctx, e.iter); err != nil {
		return err
	}
	e.iter++
	e.process(b)
	return e.drainLanes(ctx)
}

// pollCtx returns ctx's error when the n-th sweep step or lane-drain pop is
// due a context poll and ctx is done.
func pollCtx(ctx context.Context, n int) error {
	if n%ctxCheckInterval == 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	return nil
}

// drainLanes walks every dirty lane slot until none is left, taking the
// block earliest in the flattened WTO first. On an acyclic CFG that is a
// topological order, so each slot is walked once per change of its input,
// after every predecessor's walk has joined into it.
func (e *engine) drainLanes(ctx context.Context) error {
	for len(e.laneDirty) > 0 {
		if err := pollCtx(ctx, e.lanePops); err != nil {
			return err
		}
		e.lanePops++
		n := e.wtoAt[intHeapPop(&e.laneDirty)]
		e.inLane[n] = false
		// Wrong-path lanes: explore the speculated side, accumulating a
		// rollback state after every memory access within the budget. No
		// slot is inserted into lanes during this loop: a lane joins only
		// its own color at n's successors, and when n is its own successor
		// that color already holds its slot here. So lanes stays valid
		// throughout, and a lane a self-loop re-dirties stays dirty and puts
		// n back on the lane worklist.
		block := e.prog.Block(n)
		lanes := e.Lane[n]
		for i := range lanes {
			if !lanes[i].dirty {
				continue
			}
			lanes[i].dirty = false
			c := e.colors[lanes[i].color]
			out, rollback := e.laneWalk(block, &lanes[i])
			if out.budget > 0 {
				for _, s := range e.succs[n] {
					e.joinLane(s, c.id, out)
				}
			} else {
				e.stats.LanesExpired++
			}
			if !rollback.IsBottom {
				e.injectRollback(c, n, rollback)
				e.stats.Rollbacks++
			}
			e.pool.Put(out.st)
			e.pool.Put(rollback)
		}
	}
	return nil
}

// transferBlock pushes a cache state through all accesses of a block,
// classifying each access against the state it meets on the way through and
// keeping the verdicts in *verdicts, one per step, overwritten in place. It
// also reports the §6.2 slice check: whether the block's branch condition is
// computed within the block from loads that all hit. A step that repeats the
// one before it (e.repeats) leaves the state unchanged and is not
// transferred, though it counts as a transfer. The returned state is pooled
// scratch: the caller must hand it back with e.pool.Put once it has been
// joined into its targets (joins copy, so no target retains it).
func (e *engine) transferBlock(b *ir.Block, st *cache.State, verdicts *[]cache.Classification) (out *cache.State, condHits bool) {
	out = e.pool.Get()
	out.CopyFrom(st)
	bs := &e.steps.blocks[b.ID]
	condHits = bs.condInBlock
	vs := slices.Grow((*verdicts)[:0], len(bs.steps))[:len(bs.steps)]
	for i := range bs.steps {
		step := &bs.steps[i]
		vs[i] = e.dom.Classify(out, step.acc)
		if step.cond && vs[i] != cache.AlwaysHit {
			condHits = false
		}
		if !e.repeats(bs, i) {
			e.dom.Transfer(out, step.acc)
		}
	}
	*verdicts = vs
	e.stats.Transfers += int64(len(bs.steps))
	return out, condHits
}

// repeats reports whether the block's i-th architectural step repeats the
// one before it, so that its transfer is the identity (cache.Domain.Repeats).
func (e *engine) repeats(bs *blockSteps, i int) bool {
	return i > 0 && e.dom.Repeats(bs.steps[i-1].acc, bs.steps[i].acc)
}

// saturate applies the phase-2 reference saturation to a loop-head
// contribution (see satRef): the returned state is pooled scratch the
// caller must Put back when owned is true. Outside phase 2, or away from
// loop heads, st is returned untouched.
func (e *engine) saturate(target ir.BlockID, st *cache.State) (out *cache.State, owned bool) {
	if e.satRef == nil || !e.loopHeader[target] {
		return st, false
	}
	scratch := e.pool.Get()
	scratch.CopyFrom(st)
	e.dom.Saturate(e.satRef[target], scratch)
	e.stats.Widenings++
	return scratch, true
}

// joinS merges st into S[target] and marks it dirty on change. In phase 1 a
// loop head that keeps changing is widened: the engine's one count-triggered
// widening site.
func (e *engine) joinS(target ir.BlockID, st *cache.State) {
	e.stats.Joins++
	st, owned := e.saturate(target, st)
	widening := e.classic && e.loopHeader[target] && e.changes[target] >= wideningThreshold
	var prev *cache.State
	if widening {
		prev = e.S[target].Clone()
	}
	changed := e.dom.JoinInto(e.S[target], st)
	if owned {
		e.pool.Put(st)
	}
	if !changed {
		return
	}
	e.stats.JoinChanges++
	if widening {
		e.S[target] = e.dom.Widen(prev, e.S[target])
		e.stats.Widenings++
	}
	e.changes[target]++
	e.dirtyS[target] = true
}

// joinSS merges st into SS[target][pid] and marks it dirty on change.
func (e *engine) joinSS(target ir.BlockID, pid int, st *cache.State) {
	e.stats.SpecJoins++
	cur, ok := e.SS[target][pid]
	if !ok {
		cur = cache.Bottom()
		e.SS[target][pid] = cur
	}
	st, owned := e.saturate(target, st)
	changed := e.dom.JoinInto(cur, st)
	if owned {
		e.pool.Put(st)
	}
	if !changed {
		return
	}
	if !e.dirtySS[target][pid] {
		e.dirtySS[target][pid] = true
		e.dirtySSOrder[target] = append(e.dirtySSOrder[target], pid)
	}
}

// joinLane merges a lane value (state join, budget max) and, on change,
// puts the target on the lane worklist drainLanes empties; lanes never dirty
// a flow the WTO sweep walks.
func (e *engine) joinLane(target ir.BlockID, colorID int, lv laneVal) {
	e.stats.LaneJoins++
	lanes := e.Lane[target]
	i, found := slices.BinarySearchFunc(lanes, colorID, func(s laneSlot, c int) int {
		return cmp.Compare(s.color, c)
	})
	if !found {
		lanes = slices.Insert(lanes, i, laneSlot{color: colorID, laneVal: laneVal{st: cache.Bottom()}})
		e.Lane[target] = lanes
	}
	cur := &lanes[i]
	lst, owned := e.saturate(target, lv.st)
	changed := e.dom.JoinInto(cur.st, lst)
	if owned {
		e.pool.Put(lst)
	}
	if lv.budget > cur.budget {
		cur.budget = lv.budget
		changed = true
	}
	if changed || !found {
		cur.dirty = true
		if !e.inLane[target] {
			e.inLane[target] = true
			intHeapPush(&e.laneDirty, e.wtoPos[target])
		}
	}
}

// partFor interns a partition id.
func (e *engine) partFor(c *color, src ir.BlockID) int {
	key := partKey{colorID: c.id, src: src}
	if pid, ok := e.partByKey[key]; ok {
		return pid
	}
	pid := len(e.parts)
	e.parts = append(e.parts, partition{color: c, src: src})
	e.partByKey[key] = pid
	return pid
}

// process handles one WTO-sweep step: it walks the block's normal flow and
// its post-rollback SS flows, spawning lanes at an unresolved branch. Only
// flows whose in-state changed since they were last pushed through the
// block are re-evaluated. The lanes themselves are walked by drainLanes.
func (e *engine) process(n ir.BlockID) {
	block := e.prog.Block(n)

	isCondBr := false
	if t := block.Terminator(); t != nil && t.Op == ir.OpCondBr && !t.Resolved {
		isCondBr = true
	}
	// injectLanes starts the block's speculative flows from the state one
	// source flow leaves the block with (either the normal flow or a
	// post-rollback SS flow — after a rollback, execution is architectural
	// again and can itself mispredict, so SS flows must seed lanes too);
	// condHits is that flow's §6.2 slice check from transferBlock.
	injectLanes := func(condHits bool, out *cache.State) {
		if !e.opts.Speculative || !isCondBr || e.classic {
			return
		}
		depth := e.depthFor(condHits)
		if depth <= 0 {
			return
		}
		for _, c := range e.colorsAt[n] {
			// Certain-branch skip: a lane whose budget cannot reach any
			// wrong-path memory access transfers nothing, classifies
			// nothing, and accumulates a Bottom rollback — spawning it
			// would only burn lane joins and walks. Skipping is invisible
			// to every classification (see laneNeed).
			if e.laneNeed != nil && depth < e.laneNeed[c.specSucc] {
				e.stats.LanesSkippedCertain++
				continue
			}
			e.joinLane(c.specSucc, c.id, laneVal{st: out, budget: depth})
			e.stats.LanesSpawned++
		}
	}

	// Post-rollback flows (Algorithm 2/3: SS states) whose color stops here
	// convert back into the normal state before it is walked, so one walk
	// covers them; this is the only vn_stop merge. The snapshot of the dirty
	// order keeps the walks below deterministic; flows re-dirtied while we
	// process them (self-loops) land in a fresh order slice and leave the
	// block dirty for its component's next iteration.
	dirtySS := e.dirtySSOrder[n]
	e.dirtySSOrder[n] = nil
	walk := dirtySS[:0]
	for _, pid := range dirtySS {
		if e.parts[pid].color.stop != n {
			walk = append(walk, pid)
			continue
		}
		delete(e.dirtySS[n], pid)
		e.joinS(n, e.SS[n][pid])
	}

	// Normal (architectural) flow.
	if e.dirtyS[n] {
		e.dirtyS[n] = false
		if !e.S[n].IsBottom {
			out, condHits := e.transferBlock(block, e.S[n], &e.verdictS[n])
			for _, s := range e.succs[n] {
				e.joinS(s, out)
			}
			injectLanes(condHits, out)
			e.pool.Put(out)
		}
	}

	// The other post-rollback flows propagate in parallel with the normal
	// flow.
	for _, pid := range walk {
		delete(e.dirtySS[n], pid)
		out, condHits := e.transferBlock(block, e.SS[n][pid], e.keptSS(n, pid))
		for _, s := range e.succs[n] {
			e.joinSS(s, pid, out)
		}
		injectLanes(condHits, out)
		e.pool.Put(out)
	}
}

// keptSS returns where SS flow pid keeps its verdicts at block n, adding
// the entry on the flow's first walk through n. A block holds a handful of
// SS flows, so a list costs less than a map.
func (e *engine) keptSS(n ir.BlockID, pid int) *[]cache.Classification {
	kept := e.verdictSS[n]
	for i := range kept {
		if kept[i].pid == pid {
			return &kept[i].verdicts
		}
	}
	e.verdictSS[n] = append(kept, ssVerdicts{pid: pid})
	return &e.verdictSS[n][len(kept)].verdicts
}

// laneWalk pushes a lane slot through a block, consuming one budget unit
// per instruction. cache.Domain.Walk transfers the wrong-path accesses
// within the budget, records each one's verdict in the slot for classify,
// and builds the rollback: the join of the states after each access, since
// a rollback may occur at any moment (§5.1). It builds that join in closed
// form, touching per access only the blocks a later access may touch, not
// the whole universe. Both returned states are pooled scratch the caller
// must Put back.
//
// The budget arithmetic is positional: an entry budget B executes the spec
// step at instruction index p iff B >= p+1 (the spec steps already stop at
// the block's first fence). The fence is *hit* — FencesHit accounting — iff
// B strictly exceeds its index; at B == fenceIdx the budget expires at the
// fence before it reaches execute. A fence reaching execute kills all
// in-flight speculation, so a fenced block always leaves an out-budget of
// zero; the accumulated rollback still injects, since a rollback may have
// occurred at any access before the fence.
func (e *engine) laneWalk(b *ir.Block, slot *laneSlot) (laneVal, *cache.State) {
	bs := &e.steps.blocks[b.ID]
	st := e.pool.Get()
	st.CopyFrom(slot.st)
	budget := slot.budget
	rollback := e.pool.Get()
	rollback.SetBottom()
	accs := bs.specWithin(budget)
	slot.verdicts = slices.Grow(slot.verdicts[:0], len(accs))[:len(accs)]
	e.dom.Walk(st, rollback, accs, slot.verdicts)
	e.stats.SpecTransfers += int64(len(accs))
	switch {
	case bs.fenceIdx >= 0 && budget > bs.fenceIdx:
		budget = 0
		e.stats.FencesHit++
	case bs.fenceIdx >= 0:
		budget = 0
	default:
		budget -= bs.numInstrs
		if budget < 0 {
			budget = 0
		}
	}
	return laneVal{st: st, budget: budget}, rollback
}

// injectRollback feeds an accumulated rollback state of color c (observed in
// block src) into the other branch, per the merge strategy.
func (e *engine) injectRollback(c *color, src ir.BlockID, st *cache.State) {
	switch e.opts.Strategy {
	case StrategyMergeAtRollback:
		e.joinS(c.otherSucc, st)
	case StrategyJustInTime:
		if c.otherSucc == c.stop {
			// Degenerate diamond: the other side is the merge point itself.
			e.joinS(c.otherSucc, st)
			return
		}
		e.joinSS(c.otherSucc, e.partFor(c, -1), st)
	case StrategyPerRollbackBlock:
		if c.otherSucc == c.stop {
			e.joinS(c.otherSucc, st)
			return
		}
		e.joinSS(c.otherSucc, e.partFor(c, src), st)
	}
}

// depthFor implements §6.2: use b_h when the block's branch condition is
// computed within the block and every load feeding it is proved a must-hit
// against the source flow, which transferBlock checks on its way through
// the block (condHits); b_m otherwise. As the fixpoint weakens states, the
// choice can only move from b_h to b_m, so convergence is monotone. Each
// call is one decision for the stats counters.
func (e *engine) depthFor(condHits bool) int {
	if !e.opts.DynamicDepthBounding {
		return e.opts.DepthMiss
	}
	if condHits {
		e.stats.DepthHitBounds++
		return e.opts.DepthHit
	}
	e.stats.DepthMissBounds++
	return e.opts.DepthMiss
}

// result assembles the classification post-pass over the fixpoint states.
func (e *engine) result() *Result {
	res := &Result{
		Prog:       e.prog,
		Graph:      e.g,
		Layout:     e.l,
		Opts:       e.opts,
		In:         e.S,
		SpecIn:     e.SS,
		Access:     map[int]AccessInfo{},
		SpecAccess: map[int]cache.Classification{},
		Iterations: e.iter,
		Branches:   e.prog.CondBranchCount(),
		Colors:     len(e.colors),
		domain:     e.dom,
		idx:        e.idx,
	}
	res.PoolStats = e.pool.Stats()
	e.stats.Iterations = int64(e.iter)
	e.stats.Colors = int64(len(e.colors))
	e.stats.StatesPooled = int64(res.PoolStats.Reused())
	res.Stats = e.stats
	for _, c := range e.colors {
		res.Flows = append(res.Flows, SpecFlow{
			Branch:    c.branch,
			Predicted: c.predicted,
			SpecSucc:  c.specSucc,
			OtherSucc: c.otherSucc,
			Stop:      c.stop,
		})
	}
	e.classify(res)
	return res
}

// classify combines per-access verdicts: an access is always-hit only if it
// is always-hit on the normal flow and on every speculative flow passing
// through it. It walks nothing. Every live normal flow, every live SS flow
// away from its vn_stop and every lane slot kept the verdicts of its last
// walk, which is the walk of its final value (see verdictS and laneSlot); a
// walked SS flow is live, since joinSS dirties a flow only when a join
// changes it. An SS flow at its vn_stop is never walked: it was merged into
// the normal state there, so S ⊒ SS, and Classify is monotone in the
// must/may and the persistence domain. Where S's verdict is decisive, the
// SS flow's is the same, and where it is Unknown, so is the combined
// verdict; the SS flow changes nothing and is skipped.
func (e *engine) classify(res *Result) {
	var flows [][]cache.Classification
	for _, b := range e.prog.Blocks {
		bs := &e.steps.blocks[b.ID]
		if len(bs.steps) == 0 {
			continue
		}
		flows = flows[:0]
		if !e.S[b.ID].IsBottom {
			flows = append(flows, e.verdictS[b.ID])
		}
		for _, kept := range e.verdictSS[b.ID] {
			flows = append(flows, kept.verdicts)
		}
		for fi, verdicts := range flows {
			for i, cls := range verdicts {
				in := bs.steps[i].in
				if fi == 0 {
					res.Access[in.ID] = AccessInfo{Instr: in, Block: b.ID, Acc: bs.steps[i].acc, Class: cls}
				} else if prev := res.Access[in.ID]; prev.Class != cls {
					prev.Class = cache.Unknown
					res.Access[in.ID] = prev
				}
			}
		}
		// Wrong-path verdicts from lanes (#SpMiss): the i-th verdict of a
		// slot belongs to the block's i-th step.
		for _, lv := range e.Lane[b.ID] {
			if lv.st.IsBottom {
				continue
			}
			for i, cls := range lv.verdicts {
				in := bs.steps[i].in
				if prev, seen := res.SpecAccess[in.ID]; !seen {
					res.SpecAccess[in.ID] = cls
				} else if prev != cls {
					res.SpecAccess[in.ID] = cache.Unknown
				}
			}
		}
	}
}
