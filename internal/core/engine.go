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

// ssSlot is one post-rollback (SS) flow at a block: the rollbacks of one
// color, from one rollback block src under per-rollback-block partitioning
// or from all of them (src -1) under just-in-time merging, on their way
// through the other side of the branch to its vn_stop. Like a laneSlot it
// holds the flow's state, its dirty flag, and the verdicts of its last walk.
type ssSlot struct {
	color    int
	src      ir.BlockID
	st       *cache.State
	dirty    bool
	verdicts []cache.Classification
}

type engine struct {
	prog *ir.Program
	l    *layout.Layout
	dom  *cache.Domain
	idx  *interval.Result
	opts Options

	// steps holds every block's pre-resolved accesses, the only form in
	// which the engine sees instructions.
	steps *stepProgram

	S []*cache.State
	// SS[n] holds the SS flows that have reached n, one slot per color and
	// rollback block, in the order they first reached n. Slots are only
	// appended, so dirtySSOrder can name them by index.
	SS [][]ssSlot
	// verdictS[n] holds the Classify verdict of each of block n's steps on
	// the last walk of its normal flow; an SS slot keeps its own. A walk
	// overwrites its slice in place. Every change to a flow marks it dirty
	// and the sweep walks every dirty flow, so once the fixpoint is reached
	// each live flow's last walk was the walk of its final value, and
	// classify reads these verdicts instead of walking the flow again. An SS
	// flow at its vn_stop is never walked and keeps no verdicts (see
	// classify).
	verdictS [][]cache.Classification
	// Lane[n] holds the lanes that have reached n, one slot per color,
	// sorted by color id. A slot is inserted on its color's first joinLane
	// at n, so memory follows the lanes the fixpoint reaches (a handful per
	// block) rather than blocks × colors, and drainLanes and classify visit
	// the reached lanes in ascending color order.
	Lane [][]laneSlot
	// laneDirty is the lane worklist: a min-heap of the WTO position
	// (wto.Pos) of every block holding a dirty lane slot, which inLane
	// marks. Lanes need a heap where the sweep needs none, because a lane
	// walks around a loop and its flow lands behind the block it left. A
	// lane depends only on the state it spawned from, never on the flows of
	// the blocks it walks, so drainLanes can finish every lane before the
	// sweep moves on.
	laneDirty []int
	inLane    []bool
	// lanePops counts drainLanes' pops, for its context polls.
	lanePops int

	// dirtyS[n] flags a change to n's normal flow since n was last stepped.
	dirtyS []bool
	// dirtySSOrder lists the indices of each block's dirty SS slots in the
	// order they became dirty, so process merges and walks them in that
	// order: the join_changes counter of the vn_stop merges depends on it.
	dirtySSOrder [][]int

	colors []*color
	// colorsAt[n] lists the two colors of n's branch, if n spawns any.
	colorsAt [][]*color

	// walk, rollback and sat are the engine's three scratch states, each
	// allocated on its first use (see scratch). walk holds the state that
	// transferBlock and laneWalk return: process finishes its walks before
	// drainLanes starts, and each walk's state is joined into its targets
	// before the next walk begins. rollback holds laneWalk's rollback, and
	// sat the saturated copy join makes at a phase-2 loop head. Joins copy
	// out of their source, so no flow ever retains a scratch state.
	walk, rollback, sat *cache.State

	changes []int // per-block S-change counts, for phase-1 widening
	// wto is the Bourdoncle ordering of the effective CFG that sweep walks,
	// and wto.Succs the effective successor lists all state propagates
	// along: for a block ending in a Resolved CondBr only the taken edge
	// carries flow (the emitted branch is unconditional). Post-dominators,
	// and with them vn_stop placement, keep using the full edge set. On an
	// acyclic CFG wto.Order is a topological order with no components. Its
	// component heads (wto.Head) are the loop heads, the only blocks the
	// engine widens and saturates at (§6.3 targets loops; widening ordinary
	// merge blocks would discard precision that plain joins preserve). A
	// block off the order (wto.Pos -1) lies behind a resolved branch's dead
	// edge, which no execution, architectural or wrong-path, can enter.
	wto *cfg.WTO
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
	// previous iterate would: for states seeded at bottom, such as the lanes
	// and the SS flows, whichever contribution lands first would become the
	// reference.) Semantically this is the paper's §6.3 amplification:
	// speculative pollution reaching a loop head is widened to its absorbing
	// worst immediately instead of creeping one age step per fixpoint round.
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
	iter     int

	// stats accumulates the engine's semantic effort counters in plain
	// fields — no atomics, no indirection — and is copied into the Result
	// once at the end of the run. The fields are deterministic because the
	// whole engine is: the sweep, the lane worklist, the dirty-flow orders,
	// and every join are schedule-free single-goroutine computations.
	stats obs.FixpointStats
}

// newEngine builds an engine over prebuilt access steps (dataSteps for the
// data cache, fetchSteps for the instruction cache) that sweeps wto, the WTO
// of prog's effective CFG.
func newEngine(prog *ir.Program, wto *cfg.WTO, l *layout.Layout, idx *interval.Result, opts Options, steps *stepProgram) *engine {
	n := len(prog.Blocks)
	e := &engine{
		prog:         prog,
		l:            l,
		dom:          &cache.Domain{L: l, Refined: opts.RefinedJoin},
		idx:          idx,
		opts:         opts,
		steps:        steps,
		wto:          wto,
		S:            make([]*cache.State, n),
		SS:           make([][]ssSlot, n),
		verdictS:     make([][]cache.Classification, n),
		Lane:         make([][]laneSlot, n),
		inLane:       make([]bool, n),
		dirtyS:       make([]bool, n),
		dirtySSOrder: make([][]int, n),
		colorsAt:     make([][]*color, n),
		changes:      make([]int, n),
	}
	for i := range e.S {
		e.S[i] = cache.Bottom()
	}
	e.S[prog.Entry] = cache.NewState(l.NumBlocks)
	e.dirtyS[prog.Entry] = true
	e.stats.WTOComponents = int64(wto.NumComponents)

	if opts.Speculative {
		pdom := cfg.PostDominators(prog)
		for _, b := range prog.Blocks {
			t := b.Terminator()
			// Resolved branches are unconditional jumps in the emitted
			// program: no misprediction, no colors. Blocks the WTO leaves
			// out, behind a resolved branch's dead edge, spawn none either.
			if t == nil || t.Op != ir.OpCondBr || t.Resolved || wto.Pos[b.ID] < 0 {
				continue
			}
			stop := pdom.ImmediatePostDom(b.ID)
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
		e.laneNeed = laneNeedBudgets(prog, wto.Succs, steps)
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

// ctxCheckInterval is how many sweep steps, and separately how many
// lane-drain pops, pass between context polls.
// One poll is a channel select — cheap, but not free on a loop that runs
// millions of times on large unrolled programs.
const ctxCheckInterval = 256

func (e *engine) run(ctx context.Context) error {
	if e.wto.NumComponents == 0 {
		// No loop in the effective CFG (the common case after full
		// unrolling): widening cannot fire, so the whole system is a plain
		// monotone iteration and the two-phase split below would only pay
		// its phase-2 re-solve overhead. Solve in one pass; the laneNeed
		// spawn skip still applies.
		return e.sweep(ctx, 0, len(e.wto.Order))
	}
	// Phase 1 — the uncertainty pre-pass, a canonical classic pass. Lane
	// spawning is off: with no lanes there are no rollbacks and hence no SS
	// flows, so this converges exactly the non-speculative must/may
	// fixpoint, with count-triggered widening on the normal flow (see
	// classic). The corpus goldens pin the verdicts this split produces.
	e.classic = true
	if err := e.sweep(ctx, 0, len(e.wto.Order)); err != nil {
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
		if e.wto.Head[i] {
			e.satRef[i] = e.S[i].Clone()
		}
	}
	for _, b := range e.prog.Blocks {
		if len(e.colorsAt[b.ID]) > 0 && !e.S[b.ID].IsBottom {
			e.dirtyS[b.ID] = true
		}
	}
	return e.sweep(ctx, 0, len(e.wto.Order))
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

// sweep is Bourdoncle's recursive iteration strategy over one WTO level, the
// positions [lo, hi) of wto.Order: it visits the level's elements in order
// and steps each dirty block, and it iterates a component — head, then body
// at [p+1, wto.End[p]), recursively — until the head is clean, so inner
// loops stabilize before the outer sequence moves on. A self-loop is a
// component with an empty body.
//
// One in-order pass per level suffices because a step dirties only blocks
// the sweep has yet to visit, or the head of a component it is iterating.
// A flow becomes dirty in four places only: process(n) joins into n's
// successors; its vn_stop merge dirties n itself and is used up by the same
// step; the lanes drained after the step all carry n's colors, so their
// rollbacks land at c.otherSucc, a successor of n; and the entry and phase-2
// seeds are set before a sweep starts. Every successor of n comes later in
// the WTO or heads a component that contains n (cfg.WTOOf).
func (e *engine) sweep(ctx context.Context, lo, hi int) error {
	for p := lo; p < hi; p = e.wto.End[p] {
		b := e.wto.Order[p]
		if err := e.step(ctx, b); err != nil {
			return err
		}
		if !e.wto.Head[b] {
			continue
		}
		for {
			if err := e.sweep(ctx, p+1, e.wto.End[p]); err != nil {
				return err
			}
			if !e.dirty(b) {
				break
			}
			if err := e.step(ctx, b); err != nil {
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
		n := e.wto.Order[intHeapPop(&e.laneDirty)]
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
				for _, s := range e.wto.Succs[n] {
					e.joinLane(s, c.id, out)
				}
			} else {
				e.stats.LanesExpired++
			}
			if !rollback.IsBottom {
				e.injectRollback(c, n, rollback)
				e.stats.Rollbacks++
			}
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
// transferred, though it counts as a transfer. The returned state is the
// walk scratch state, valid until the next walk.
func (e *engine) transferBlock(b *ir.Block, st *cache.State, verdicts *[]cache.Classification) (out *cache.State, condHits bool) {
	out = e.scratch(&e.walk)
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

// scratch returns the scratch state *s, allocating it on its first use;
// every later use counts in Stats.StatesPooled. Its contents are stale, so
// the caller initializes it with CopyFrom or SetBottom.
func (e *engine) scratch(s **cache.State) *cache.State {
	if *s == nil {
		*s = cache.NewState(e.l.NumBlocks)
	} else {
		e.stats.StatesPooled++
	}
	return *s
}

// repeats reports whether the block's i-th architectural step repeats the
// one before it, so that its transfer is the identity (cache.Domain.Repeats).
func (e *engine) repeats(bs *blockSteps, i int) bool {
	return i > 0 && e.dom.Repeats(bs.steps[i-1].acc, bs.steps[i].acc)
}

// join merges st into dst, the state of one of target's flows, and reports
// whether dst changed. In phase 2 a loop head's contribution is saturated
// against satRef first, on the sat scratch copy (see satRef).
func (e *engine) join(target ir.BlockID, dst, st *cache.State) bool {
	if e.satRef == nil || !e.wto.Head[target] {
		return e.dom.JoinInto(dst, st)
	}
	sat := e.scratch(&e.sat)
	sat.CopyFrom(st)
	e.dom.Saturate(e.satRef[target], sat)
	e.stats.Widenings++
	return e.dom.JoinInto(dst, sat)
}

// joinS merges st into S[target] and marks it dirty on change. In phase 1 a
// loop head that keeps changing is widened: the engine's one count-triggered
// widening site.
func (e *engine) joinS(target ir.BlockID, st *cache.State) {
	e.stats.Joins++
	widening := e.classic && e.wto.Head[target] && e.changes[target] >= wideningThreshold
	var prev *cache.State
	if widening {
		prev = e.S[target].Clone()
	}
	if !e.join(target, e.S[target], st) {
		return
	}
	e.stats.JoinChanges++
	if widening {
		e.dom.Widen(prev, e.S[target])
		e.stats.Widenings++
	}
	e.changes[target]++
	e.dirtyS[target] = true
}

// joinSS merges st into target's SS flow of color c and rollback block src,
// adding the flow's slot on its first join there, and marks the slot dirty
// on change.
func (e *engine) joinSS(target ir.BlockID, c int, src ir.BlockID, st *cache.State) {
	e.stats.SpecJoins++
	i := e.ssIndex(target, c, src)
	if i < 0 {
		i = len(e.SS[target])
		e.SS[target] = append(e.SS[target], ssSlot{color: c, src: src, st: cache.Bottom()})
	}
	slot := &e.SS[target][i]
	if e.join(target, slot.st, st) && !slot.dirty {
		slot.dirty = true
		e.dirtySSOrder[target] = append(e.dirtySSOrder[target], i)
	}
}

// ssIndex returns the index of n's SS slot of color c and rollback block
// src, or -1 when that flow has not reached n. A block holds a handful of SS
// flows, so a scan costs less than a map.
func (e *engine) ssIndex(n ir.BlockID, c int, src ir.BlockID) int {
	for i := range e.SS[n] {
		if slot := &e.SS[n][i]; slot.color == c && slot.src == src {
			return i
		}
	}
	return -1
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
	changed := e.join(target, cur.st, lv.st)
	if lv.budget > cur.budget {
		cur.budget = lv.budget
		changed = true
	}
	if changed || !found {
		cur.dirty = true
		if !e.inLane[target] {
			e.inLane[target] = true
			intHeapPush(&e.laneDirty, e.wto.Pos[target])
		}
	}
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
	for _, i := range dirtySS {
		slot := &e.SS[n][i]
		if e.colors[slot.color].stop != n {
			walk = append(walk, i)
			continue
		}
		slot.dirty = false
		e.joinS(n, slot.st)
	}

	// Normal (architectural) flow.
	if e.dirtyS[n] {
		e.dirtyS[n] = false
		if !e.S[n].IsBottom {
			out, condHits := e.transferBlock(block, e.S[n], &e.verdictS[n])
			for _, s := range e.wto.Succs[n] {
				e.joinS(s, out)
			}
			injectLanes(condHits, out)
		}
	}

	// The other post-rollback flows propagate in parallel with the normal
	// flow. A walk adds no slot at n: at a self-loop it joins the slot it
	// walks, so slot stays valid.
	for _, i := range walk {
		slot := &e.SS[n][i]
		slot.dirty = false
		out, condHits := e.transferBlock(block, slot.st, &slot.verdicts)
		for _, s := range e.wto.Succs[n] {
			e.joinSS(s, slot.color, slot.src, out)
		}
		injectLanes(condHits, out)
	}
}

// laneWalk pushes a lane slot through a block, consuming one budget unit
// per instruction. cache.Domain.Walk transfers the wrong-path accesses
// within the budget, records each one's verdict in the slot for classify,
// and builds the rollback: the join of the states after each access, since
// a rollback may occur at any moment (§5.1). It builds that join in closed
// form, touching per access only the blocks a later access may touch, not
// the whole universe. It returns the walk and rollback scratch states, valid
// until the next lane walk.
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
	st := e.scratch(&e.walk)
	st.CopyFrom(slot.st)
	budget := slot.budget
	rollback := e.scratch(&e.rollback)
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
		e.joinSS(c.otherSucc, c.id, -1, st)
	case StrategyPerRollbackBlock:
		if c.otherSucc == c.stop {
			e.joinS(c.otherSucc, st)
			return
		}
		e.joinSS(c.otherSucc, c.id, src, st)
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
		Layout:     e.l,
		Opts:       e.opts,
		WTO:        e.wto,
		In:         e.S,
		Access:     make(map[int]AccessInfo, e.steps.stats().ArchSteps),
		SpecAccess: map[int]cache.Classification{},
		Iterations: e.iter,
		Branches:   e.prog.CondBranchCount(),
		Colors:     len(e.colors),
		domain:     e.dom,
		idx:        e.idx,
	}
	e.stats.Iterations = int64(e.iter)
	e.stats.Colors = int64(len(e.colors))
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
// walk, which is the walk of its final value (see verdictS, ssSlot and
// laneSlot); a live SS slot was walked, since the join that first changed it
// dirtied it. An SS flow at its vn_stop is never walked: it was merged into
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
		for _, slot := range e.SS[b.ID] {
			if !slot.st.IsBottom && e.colors[slot.color].stop != b.ID {
				flows = append(flows, slot.verdicts)
			}
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
