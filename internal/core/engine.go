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
// the drain walks every dirty slot. classify reads them instead of walking
// the lane again.
type laneSlot struct {
	color int
	laneVal
	dirty    bool
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
	// Lane[n] holds the lanes that have reached n, one slot per color,
	// sorted by color id. A slot is inserted on its color's first joinLane
	// at n, so memory follows the lanes the fixpoint reaches (a handful per
	// block) rather than blocks × colors, and process and classify visit
	// the reached lanes in ascending color order.
	Lane [][]laneSlot

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

	inWork  []bool
	changes []int // per-block S-change counts, for phase-1 widening
	// wto is the Bourdoncle ordering of the effective CFG; an acyclic CFG is
	// one top-level sequence with no components. Enqueued blocks are tracked
	// as pending counts per enclosing component (wtoPending): the recursive
	// sweep re-iterates a component exactly while it has pending members,
	// stabilizing inner components before re-entering outer ones.
	wto        *cfg.WTO
	wtoPending []int
	// Dirty-element min-heaps, one per WTO nesting level (index c+1 for
	// component c, index 0 for the top-level sequence), holding the indices
	// of that level's dirty elements. Speculation makes information flow
	// backward through non-CFG channels — a lane rollback joins SS at the
	// branch's other successor, behind the lane's current block, and an SS
	// flow reaching its vn_stop re-joins the normal state of that same
	// block — so a plain front-to-back sweep would re-propagate
	// intermediate states through the whole downstream tail once per
	// backward event. The heaps let each sweep always process the earliest
	// dirty element of its level next, draining upstream re-dirt before any
	// downstream block is (re)visited: upstream-first, per nesting level (on
	// an acyclic CFG the single top-level heap is a topological-order
	// priority worklist).
	// Entries are lazily deleted: an element may be stale by the time it is
	// popped (block no longer in-work, component no longer pending) and is
	// then skipped.
	wtoDirty [][]int
	// wtoBlockIdx[b] is b's element index within its immediate level (body
	// of CompOf[b], or the top-level sequence); for component heads see
	// wtoHeadComp/wtoCompIdx instead, since heads are not body elements.
	wtoBlockIdx []int
	// wtoCompIdx[c] is component c's element index within its parent level.
	wtoCompIdx []int
	// wtoHeadComp[b] is the component headed by b, or -1.
	wtoHeadComp []int
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
	// whole engine is: the worklist, the dirty-flow orders, and every join
	// are schedule-free single-goroutine computations.
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
		Lane:         make([][]laneSlot, n),
		dirtyS:       make([]bool, n),
		dirtySS:      make([]map[int]bool, n),
		dirtySSOrder: make([][]int, n),
		colorsAt:     map[ir.BlockID][]*color{},
		partByKey:    map[partKey]int{},
		inWork:       make([]bool, n),
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

func (e *engine) enqueue(b ir.BlockID) {
	if e.inWork[b] {
		return
	}
	e.inWork[b] = true
	// Queue b's element at its own level (component heads have no body
	// element — they are re-stepped by their component's stabilization
	// loop), then push each enclosing component's element at the level
	// above when it transitions clean→pending.
	if e.wtoHeadComp[b] < 0 {
		intHeapPush(&e.wtoDirty[e.wto.CompOf[b]+1], e.wtoBlockIdx[b])
	}
	for c := e.wto.CompOf[b]; c >= 0; c = e.wto.Parent[c] {
		e.wtoPending[c]++
		if e.wtoPending[c] == 1 {
			intHeapPush(&e.wtoDirty[e.wto.Parent[c]+1], e.wtoCompIdx[c])
		}
	}
}

// ctxCheckInterval is how many worklist pops pass between context polls.
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
		e.enqueue(e.prog.Entry)
		return e.solveWTO(ctx)
	}
	// Phase 1 — the uncertainty pre-pass, a canonical classic pass. Lane
	// spawning is off: with no lanes there are no rollbacks and hence no SS
	// flows, so this converges exactly the non-speculative must/may
	// fixpoint, with count-triggered widening on the normal flow (see
	// classic). The corpus goldens pin the verdicts this split produces.
	e.classic = true
	e.enqueue(e.prog.Entry)
	if err := e.solveWTO(ctx); err != nil {
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
			e.enqueue(b.ID)
		}
	}
	return e.solveWTO(ctx)
}

// intHeapPush and intHeapPop maintain a plain min-heap of ints — the
// per-level dirty-element queues, where container/heap's interface
// indirection and per-push boxing would show up on the hot path.
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

// initWTO computes the Bourdoncle ordering over the effective CFG and
// indexes the element tree for enqueue's cursor bubbling.
func (e *engine) initWTO() {
	n := len(e.prog.Blocks)
	wto := cfg.WTOOf(n, e.prog.Entry, func(b ir.BlockID) []ir.BlockID {
		return e.succs[b]
	})
	e.stats.WTOComponents = int64(wto.NumComponents)
	e.wto = wto
	e.wtoPending = make([]int, e.wto.NumComponents)
	e.wtoBlockIdx = make([]int, n)
	e.wtoCompIdx = make([]int, e.wto.NumComponents)
	e.wtoHeadComp = make([]int, n)
	for i := range e.wtoHeadComp {
		e.wtoHeadComp[i] = -1
	}
	e.wtoDirty = make([][]int, e.wto.NumComponents+1)
	var index func(elems []cfg.WTOElem)
	index = func(elems []cfg.WTOElem) {
		for i, el := range elems {
			if el.Comp != nil {
				e.wtoCompIdx[el.Comp.Index] = i
				e.wtoHeadComp[el.Comp.Head] = el.Comp.Index
				index(el.Comp.Body)
				continue
			}
			e.wtoBlockIdx[el.Block] = i
		}
	}
	index(e.wto.Sequence)
}

// solveWTO drains pending work in weak topological order. One sweep of the
// top level suffices: any dirty block keeps its whole chain of enclosing
// elements queued, so the top-level heap is non-empty whenever work remains.
func (e *engine) solveWTO(ctx context.Context) error {
	return e.sweepWTO(ctx, -1, e.wto.Sequence)
}

// sweepWTO processes the elements of one WTO nesting level (lvl -1 is the
// top-level sequence, otherwise a component index whose body elems is)
// until the level is clean, always taking the earliest dirty element next
// (the level's min-heap): upstream re-dirt — a rollback injection or
// vn_stop self-merge landing behind the sweep — is drained before any
// downstream block is revisited, keeping the cost of speculation's backward
// information flow proportional to the re-dirtied region instead of the
// whole downstream tail. Component elements loop locally — head, then body,
// recursively — until nothing inside them is pending, so inner loops fully
// stabilize before the outer sequence moves on (Bourdoncle's recursive
// iteration strategy).
func (e *engine) sweepWTO(ctx context.Context, lvl int, elems []cfg.WTOElem) error {
	h := &e.wtoDirty[lvl+1]
	for len(*h) > 0 {
		el := &elems[intHeapPop(h)]
		if el.Comp == nil {
			// Stale entries (block already stepped as part of an enclosing
			// drain) are skipped by stepWTO's in-work check.
			if err := e.stepWTO(ctx, el.Block); err != nil {
				return err
			}
			continue
		}
		for e.wtoPending[el.Comp.Index] > 0 {
			if err := e.stepWTO(ctx, el.Comp.Head); err != nil {
				return err
			}
			if err := e.sweepWTO(ctx, el.Comp.Index, el.Comp.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

// stepWTO processes block b if it is pending, maintaining the component
// pending counters that drive sweepWTO's local stabilization loops.
func (e *engine) stepWTO(ctx context.Context, b ir.BlockID) error {
	if !e.inWork[b] {
		return nil
	}
	e.inWork[b] = false
	for c := e.wto.CompOf[b]; c >= 0; c = e.wto.Parent[c] {
		e.wtoPending[c]--
	}
	if e.iter%ctxCheckInterval == 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	e.iter++
	e.process(b)
	return nil
}

// transferBlock pushes a cache state through all accesses of a block. It
// also reports the §6.2 slice check: whether the block's branch condition is
// computed within the block from loads that all hit. Each load the
// condition depends on is classified against the state it meets, on the
// way through. A step that repeats the one before it (e.repeats) leaves the
// state unchanged and is not transferred, though it counts as a transfer.
// The returned state is pooled scratch: the caller must hand it back with
// e.pool.Put once it has been joined into its targets (joins copy, so no
// target retains it).
func (e *engine) transferBlock(b *ir.Block, st *cache.State) (out *cache.State, condHits bool) {
	out = e.pool.Get()
	out.CopyFrom(st)
	bs := &e.steps.blocks[b.ID]
	condHits = bs.condInBlock
	for i := range bs.steps {
		step := &bs.steps[i]
		if condHits && step.cond && e.dom.Classify(out, step.acc) != cache.AlwaysHit {
			condHits = false
		}
		if !e.repeats(bs, i) {
			e.dom.Transfer(out, step.acc)
		}
	}
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

// joinS merges st into S[target] and re-enqueues the target on change. In
// phase 1 a loop head that keeps changing is widened: the engine's one
// count-triggered widening site.
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
	e.enqueue(target)
}

// joinSS merges st into SS[target][pid] and re-enqueues on change.
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
	e.enqueue(target)
}

// joinLane merges a lane value (state join, budget max) and re-enqueues on
// change.
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
		e.enqueue(target)
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

// process handles one worklist pop. Only flows whose in-state changed since
// they were last pushed through the block are re-evaluated.
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

	// Normal (architectural) flow.
	if e.dirtyS[n] {
		e.dirtyS[n] = false
		if !e.S[n].IsBottom {
			out, condHits := e.transferBlock(block, e.S[n])
			for _, s := range e.succs[n] {
				e.joinS(s, out)
			}
			injectLanes(condHits, out)
			e.pool.Put(out)
		}
	}

	// Speculative post-rollback flows (Algorithm 2/3: SS states). At the
	// color's vn_stop they convert back into the normal state; elsewhere
	// they propagate in parallel with it. The snapshot of the dirty order
	// keeps the walk deterministic; flows re-dirtied while we process them
	// (self-loops) land in a fresh order slice and re-enqueue the block.
	dirtySS := e.dirtySSOrder[n]
	e.dirtySSOrder[n] = nil
	for _, pid := range dirtySS {
		delete(e.dirtySS[n], pid)
		st := e.SS[n][pid]
		p := e.parts[pid]
		if n == p.color.stop {
			e.joinS(n, st)
			continue
		}
		out, condHits := e.transferBlock(block, st)
		for _, s := range e.succs[n] {
			e.joinSS(s, pid, out)
		}
		injectLanes(condHits, out)
		e.pool.Put(out)
	}

	// Wrong-path lanes: explore the speculated side, accumulating a rollback
	// state after every memory access within the budget. No slot is
	// inserted into lanes during this loop: a lane joins only its own
	// color at n's successors, and when n is its own successor that color
	// already holds its slot here. So lanes stays valid throughout, and a
	// lane a self-loop re-dirties stays dirty for the next pop of n.
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
// through it. Normal and SS flows are walked through every block once more,
// classifying each access before transferring it to the next, except that a
// step repeating the one before it is not transferred, as in transferBlock;
// lanes are not walked again, since each slot kept the verdicts of its last
// walk, which used its final state and budget with laneWalk's positional
// budget and fence truncation.
func (e *engine) classify(res *Result) {
	st := e.pool.Get()
	defer e.pool.Put(st)
	for _, b := range e.prog.Blocks {
		bs := &e.steps.blocks[b.ID]
		if len(bs.steps) == 0 {
			continue
		}
		var flows []*cache.State
		if !e.S[b.ID].IsBottom {
			flows = append(flows, e.S[b.ID])
		}
		for _, f := range e.SS[b.ID] {
			if !f.IsBottom {
				flows = append(flows, f)
			}
		}
		for fi, f := range flows {
			st.CopyFrom(f)
			for i := range bs.steps {
				if i > 0 && !e.repeats(bs, i-1) {
					e.dom.Transfer(st, bs.steps[i-1].acc)
				}
				acc := bs.steps[i].acc
				in := bs.steps[i].in
				cls := e.dom.Classify(st, acc)
				if fi == 0 {
					res.Access[in.ID] = AccessInfo{Instr: in, Block: b.ID, Acc: acc, Class: cls}
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
