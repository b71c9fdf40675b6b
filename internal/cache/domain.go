package cache

import (
	"encoding/json"
	"slices"

	"specabsint/internal/ir"
	"specabsint/internal/layout"
)

// Access describes the blocks a memory instruction may touch. Exactly one
// of the Count candidate blocks [First, First+Count) is accessed; Count == 1
// means the block is statically known.
type Access struct {
	Sym   ir.SymbolID
	First layout.BlockID
	Count int
}

// Exact reports whether the accessed block is statically known.
func (a Access) Exact() bool { return a.Count == 1 }

// Classification of a single access against an abstract state. It is one
// byte, so a lane can keep the verdicts of its last walk at one byte each.
type Classification uint8

// Access classifications.
const (
	Unknown Classification = iota
	AlwaysHit
	AlwaysMiss
)

// String names the classification.
func (c Classification) String() string {
	switch c {
	case AlwaysHit:
		return "always-hit"
	case AlwaysMiss:
		return "always-miss"
	}
	return "unknown"
}

// MarshalJSON renders the classification as its name.
func (c Classification) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.String())
}

// Domain bundles the layout with analysis options and implements the
// abstract operations. A transfer iterates the block universe with the
// stride of the cache-set mapping, so only blocks competing for the accessed
// set are touched; where the geometry allows, the exact access and the join
// run on four blocks per step instead (wordKernels).
type Domain struct {
	L *layout.Layout
	// Refined enables the Appendix-B shadow-variable aging rule (NYoung);
	// when false the classic Ferdinand aging rule is used. The shadow (may)
	// component is maintained either way for Always-Miss classification.
	Refined bool
	// Persist switches the domain to the persistence ("first miss")
	// analysis: ages become sticky maxima since first load, joins take the
	// pointwise max, and AlwaysHit means "misses at most once in total".
	// See persist.go.
	Persist bool

	// prefix is scratch for the NYoung cumulative histogram: prefix[a] is
	// the number of shadow blocks in the set with age <= a. An exact access
	// counts only the ages its must pass can ask about (see accessExact),
	// and the histogram is only as tall as the oldest counted age (top+1
	// entries), so an access costs O(blocks in the set) rather than
	// O(assoc); shouldAge clamps taller ages to prefix[top]. Entries past
	// len(prefix), up to its capacity, are always zero.
	prefix []int
	// affected/affectedList are scratch for range transfers: membership mask
	// and list of the cache sets a range access may touch. Reused across
	// calls so the hot path performs no per-transfer allocation.
	affected     []bool
	affectedList []int
	// touched is Walk's scratch: the block ranges its later accesses may
	// touch, sorted and coalesced.
	touched []blockRange
}

// blockRange is the half-open block-id range [lo, hi).
type blockRange struct{ lo, hi int }

// affectedSets collects the distinct cache sets touched by acc into the
// domain's scratch list, returning it. Valid until the next call. A set is a
// block id modulo NumSets, so no set reaches the universe's size, and the
// mask needs no more entries than that, however many sets the cache has.
func (d *Domain) affectedSets(acc Access) []int {
	numSets := min(d.L.Config.NumSets, d.L.NumBlocks)
	if len(d.affected) < numSets {
		d.affected = make([]bool, numSets)
	}
	d.affectedList = d.affectedList[:0]
	for i := 0; i < acc.Count && len(d.affectedList) < numSets; i++ {
		set := d.L.SetOf(acc.First + layout.BlockID(i))
		if !d.affected[set] {
			d.affected[set] = true
			d.affectedList = append(d.affectedList, set)
		}
	}
	for _, set := range d.affectedList {
		d.affected[set] = false
	}
	return d.affectedList
}

// NewDomain creates a refined domain over l.
func NewDomain(l *layout.Layout) *Domain { return &Domain{L: l, Refined: true} }

func (d *Domain) assoc() int { return d.L.Config.Assoc }

// setStart returns the first block id in the same cache set as b, so that
// iterating with stride NumSets visits exactly b's competitors.
func (d *Domain) setStart(b layout.BlockID) int { return d.L.SetOf(b) }

// Repeats reports whether acc, made right after prev, leaves every state
// unchanged, so that a caller may skip its Transfer. It holds in the must
// domain, with the NYoung rule on or off, when both accesses are exact and
// to the same block v: prev left v's must age 1, so no block is younger and
// none ages, and every other shadow age in v's set at 2 or more, or 0, so no
// shadow age changes either. Sym is not compared; it does not matter to the
// domain. Under persistence a re-access ages again every block younger than
// v's oldest age, so nothing repeats there.
func (d *Domain) Repeats(prev, acc Access) bool {
	return !d.Persist && prev.Exact() && acc.Exact() && prev.First == acc.First
}

// Transfer applies one memory access to the state in place.
func (d *Domain) Transfer(s *State, acc Access) {
	if s.IsBottom {
		return
	}
	if d.Persist {
		if acc.Exact() {
			d.persistAccessExact(s, acc.First)
		} else {
			d.persistAccessRange(s, acc)
		}
		return
	}
	if acc.Exact() {
		d.accessExact(s, acc.First)
		return
	}
	d.accessRange(s, acc)
}

// shadowUpdateExact applies the Appendix-B may-aging for a known access:
// blocks whose shadow age is <= the accessed block's old shadow age get one
// step older. In the same pass it counts the *new* shadow ages up to limit
// into d.prefix, the histogram the NYoung rule reads, avoiding a second scan;
// older ages are never asked about (see accessExact). With limit 0 it builds
// no histogram and leaves d.prefix as it was.
func (d *Domain) shadowUpdateExact(s *State, v layout.BlockID, limit uint16) {
	if exact, _ := d.wordKernels(); exact {
		d.shadowWords(s, v, limit)
		return
	}
	assoc := uint16(d.assoc())
	stride := d.L.Config.NumSets
	shadow := s.shadow
	oldShadowV := shadow[v] // 0 = infinity
	var hist []int
	if limit > 0 {
		hist = d.histogram()
	}
	top := uint16(1) // v's own new age
	for i := d.setStart(v); i < len(shadow); i += stride {
		a := shadow[i]
		if a == 0 || layout.BlockID(i) == v {
			continue
		}
		if oldShadowV == 0 || a <= oldShadowV {
			if a+1 > assoc {
				shadow[i] = 0
				continue
			}
			a++
			shadow[i] = a
		}
		if a <= limit {
			hist[a]++
			if a > top {
				top = a
			}
		}
	}
	shadow[v] = 1
	if limit > 0 {
		hist[1]++ // v itself
		d.cumulate(hist, int(top))
	}
}

// buildPrefix fills d.prefix with the cumulative histogram of the (already
// updated) shadow ages of one set: prefix[a] = number of shadow blocks in
// the set with age <= a. It makes the NYoung rule O(1) per aged block.
func (d *Domain) buildPrefix(s *State, set int) {
	assoc := d.assoc()
	stride := d.L.Config.NumSets
	shadow := s.shadow
	hist := d.histogram()
	top := 0
	for i := set; i < len(shadow); i += stride {
		if a := int(shadow[i]); a != 0 && a <= assoc {
			hist[a]++
			if a > top {
				top = a
			}
		}
	}
	d.cumulate(hist, top)
}

// histogram returns the NYoung scratch at full height (assoc+2 entries),
// all zero. Only d.prefix[:len(d.prefix)], the part the previous histogram
// used, can hold counts, so only that part is cleared.
func (d *Domain) histogram() []int {
	n := d.assoc() + 2
	if cap(d.prefix) < n {
		d.prefix = make([]int, n)
		return d.prefix
	}
	clear(d.prefix)
	return d.prefix[:n]
}

// cumulate turns hist, whose counts all lie at ages 1..top, into the
// cumulative histogram and cuts d.prefix to top+1 entries. Past top the
// full-height sum is flat at prefix[top], which is what shouldAge's clamp
// reads for any older age; so the sum costs O(top), not O(assoc).
func (d *Domain) cumulate(hist []int, top int) {
	for a := 2; a <= top; a++ {
		hist[a] += hist[a-1]
	}
	d.prefix = hist[:top+1]
}

// shouldAge implements the NYoung rule: u ages only if at least Age(u)
// shadow blocks (other than u, in u's set) may be younger than or as young
// as u. Shadow ages are the *new* ages, per Appendix B: shadowU is u's. It
// reads the histogram the current access built, which counts every new
// shadow age up to the access's limit, and ageU is never past that limit;
// an age past the histogram's top reads prefix[top], since no counted
// shadow age is older.
func (d *Domain) shouldAge(shadowU, ageU int) bool {
	idx := ageU
	if idx >= len(d.prefix) {
		idx = len(d.prefix) - 1
	}
	n := d.prefix[idx]
	if shadowU != 0 && shadowU <= ageU {
		n-- // u itself does not count toward NYoung(u)
	}
	return n >= ageU
}

// accessExact implements the Fig. 4 / Appendix B transfer for a known block
// v. Let m be v's old must age. The must pass ages only blocks younger than
// v, or every must-cached block when m is 0 (v may be uncached), so the
// NYoung rule is asked only about ages up to m-1, or up to assoc when m is
// 0, and the histogram counts no older shadow age. When m is 1, v is
// already the youngest and no block ages: there is neither a histogram nor
// a must pass. Whenever the must pass has a candidate, this access has
// counted v's own age 1, so shouldAge never reads an earlier access's
// histogram. On a cache with one set both passes run on words
// (shadowWords, mustWords); with more sets they stride over v's set.
func (d *Domain) accessExact(s *State, v layout.BlockID) {
	assoc := d.assoc()
	stride := d.L.Config.NumSets

	oldMustV := int(s.must[v]) // 0 = infinity
	if oldMustV == 1 {
		d.shadowUpdateExact(s, v, 0)
		return
	}
	limit := 0
	if d.Refined {
		limit = oldMustV - 1
		if oldMustV == 0 {
			limit = assoc
		}
	}
	d.shadowUpdateExact(s, v, uint16(limit))

	if exact, _ := d.wordKernels(); exact {
		s.must[v] = 0 // a zero lane is skipped; v's new age is set below
		d.mustWords(s, uint16(oldMustV))
	} else {
		for i := d.setStart(v); i < len(s.must); i += stride {
			a := int(s.must[i])
			if a == 0 || layout.BlockID(i) == v {
				continue
			}
			if oldMustV != 0 && a >= oldMustV {
				continue
			}
			if d.Refined && !d.shouldAge(int(s.shadow[i]), a) {
				continue
			}
			if a+1 > assoc {
				s.must[i] = 0
			} else {
				s.must[i] = uint16(a + 1)
			}
		}
	}
	if assoc >= 1 {
		s.must[v] = 1
	}
}

// accessRange handles an access whose target block is only known to lie in
// [First, First+Count): exactly one of them is touched, so every block in an
// affected set may age by one, and no block becomes must-cached; on the may
// side every candidate may now be the youngest.
func (d *Domain) accessRange(s *State, acc Access) {
	assoc := d.assoc()
	numSets := d.L.Config.NumSets
	affected := d.affectedSets(acc)

	// Shadow: candidates may be youngest now. Other blocks keep their
	// lower bounds (the access may have gone elsewhere in their set).
	for i := 0; i < acc.Count; i++ {
		s.shadow[acc.First+layout.BlockID(i)] = 1
	}

	// Must: age every block in an affected set (the accessed block's age is
	// unknown, so conservatively it evicts from the bottom of the set).
	for _, set := range affected {
		if d.Refined {
			d.buildPrefix(s, set)
		}
		for i := set; i < len(s.must); i += numSets {
			a := int(s.must[i])
			if a == 0 {
				continue
			}
			if d.Refined && !d.shouldAge(int(s.shadow[i]), a) {
				continue
			}
			if a+1 > assoc {
				s.must[i] = 0
			} else {
				s.must[i] = uint16(a + 1)
			}
		}
	}
}

// Join returns the least upper bound of a and b (Fig. 5 plus the Appendix-B
// shadow rule): max of must ages (with 0 = infinity absorbing), min of
// shadow ages (with 0 = infinity neutral).
func (d *Domain) Join(a, b *State) *State {
	if a.IsBottom {
		return b.Clone()
	}
	if b.IsBottom {
		return a.Clone()
	}
	out := a.Clone()
	d.JoinInto(out, b)
	return out
}

// JoinInto merges src into dst in place and reports whether dst changed.
// JoinInto copies out of src and never retains it, so callers may reuse src.
func (d *Domain) JoinInto(dst, src *State) bool {
	if d.Persist {
		return d.persistJoinInto(dst, src)
	}
	if src.IsBottom {
		return false
	}
	if dst.IsBottom {
		dst.CopyFrom(src)
		return true
	}
	if _, words := d.wordKernels(); words {
		return joinWords(dst, src)
	}
	changed := false
	// Bounding i by len(dst.must) on every iteration, rather than ranging
	// over it, lets the compiler drop dst.must's bounds check: the stores
	// below may alias dst's slice headers, so a range bound would not prove
	// it. Only caches of more than maxWordAssoc ways join here.
	for i := 0; i < len(dst.must); i++ {
		dm, sm := dst.must[i], src.must[i]
		if dm != 0 && (sm == 0 || sm > dm) {
			dst.must[i] = sm
			changed = true
		}
		ds, ss := dst.shadow[i], src.shadow[i]
		if ss != 0 && (ds == 0 || ss < ds) {
			dst.shadow[i] = ss
			changed = true
		}
	}
	return changed
}

// Walk pushes st through accs, one wrong-path lane's accesses in program
// order. It records in verdicts[i] the verdict of accs[i] against the state
// the access meets, and leaves in rollback the join of the states after each
// access, since a rollback may follow any of them (§5.1); with no access the
// rollback is bottom. verdicts must hold len(accs) entries, and rollback must
// not alias st. The result equals a Transfer, JoinInto(rollback) and
// Classify per access.
//
// The rollback is built in closed form rather than by a whole-state join per
// access. A block no later access touches only ages: its must age grows
// toward 0 (evicted), which absorbs the must join, or toward the persistence
// domain's top, and its shadow age grows toward 0, which the shadow join
// ignores. So its rollback must age is the final one and its rollback shadow
// age the one after the first access. The rollback therefore starts as a copy
// of the state after the first access; each later access joins in only the
// blocks some later access may touch; and the untouched must ages are copied
// from the final state at the end. A walk costs O(universe + accesses ×
// touched blocks) instead of O(accesses × universe). An access that Repeats
// the one before it is classified but neither transferred nor joined: the
// state it leaves is the one already joined.
func (d *Domain) Walk(st, rollback *State, accs []Access, verdicts []Classification) {
	rollback.SetBottom()
	if len(accs) == 0 || st.IsBottom {
		for i := range accs {
			verdicts[i] = d.Classify(st, accs[i])
		}
		return
	}
	verdicts[0] = d.Classify(st, accs[0])
	d.Transfer(st, accs[0])
	rollback.CopyFrom(st)
	if len(accs) == 1 {
		return
	}
	touched := d.touchedRanges(accs[1:])
	for i := 1; i < len(accs); i++ {
		verdicts[i] = d.Classify(st, accs[i])
		if d.Repeats(accs[i-1], accs[i]) {
			continue
		}
		d.Transfer(st, accs[i])
		for _, r := range touched {
			d.joinRange(rollback, st, r)
		}
	}
	lo := 0
	for _, r := range touched {
		copy(rollback.must[lo:r.lo], st.must[lo:r.lo])
		lo = r.hi
	}
	copy(rollback.must[lo:], st.must[lo:])
}

// touchedRanges collects the candidate ranges of accs into d.touched, sorted
// by first block with overlapping and adjacent ranges merged, and returns
// it. Valid until the next call.
func (d *Domain) touchedRanges(accs []Access) []blockRange {
	rs := slices.Grow(d.touched[:0], len(accs))
	for _, a := range accs {
		rs = append(rs, blockRange{int(a.First), int(a.First) + a.Count})
	}
	slices.SortFunc(rs, func(a, b blockRange) int { return a.lo - b.lo })
	out := rs[:1]
	for _, r := range rs[1:] {
		if last := &out[len(out)-1]; r.lo <= last.hi {
			last.hi = max(last.hi, r.hi)
		} else {
			out = append(out, r)
		}
	}
	d.touched = rs
	return out
}

// joinRange joins src into dst over the blocks of r by the domain's own
// rule: the must join is a max in which 0 (evicted) absorbs, or a plain max
// under persistence; the shadow join is a min in which 0 is neutral.
func (d *Domain) joinRange(dst, src *State, r blockRange) {
	dm, sm := dst.must[r.lo:r.hi], src.must[r.lo:r.hi]
	if d.Persist {
		for i, s := range sm {
			dm[i] = max(dm[i], s)
		}
	} else {
		for i, s := range sm {
			if dm[i] != 0 && (s == 0 || s > dm[i]) {
				dm[i] = s
			}
		}
	}
	ds, ss := dst.shadow[r.lo:r.hi], src.shadow[r.lo:r.hi]
	for i, s := range ss {
		if s != 0 && (ds[i] == 0 || s < ds[i]) {
			ds[i] = s
		}
	}
}

// Leq reports whether a ⊑ b (b over-approximates a): b's must ages are no
// younger than a's, and b's shadow ages no older than a's.
func (d *Domain) Leq(a, b *State) bool {
	if d.Persist {
		return d.persistLeq(a, b)
	}
	if a.IsBottom {
		return true
	}
	if b.IsBottom {
		return false
	}
	for i := 0; i < len(a.must); i++ {
		am, bm := a.must[i], b.must[i]
		if bm != 0 && (am == 0 || am > bm) {
			return false
		}
		as, bs := a.shadow[i], b.shadow[i]
		if as != 0 && (bs == 0 || bs > as) {
			return false
		}
	}
	return true
}

// Widen accelerates convergence: any must age that grew since prev jumps to
// evicted, and any shadow age that shrank (or appeared) jumps to 1. The
// result over-approximates next, so widening preserves soundness (§6.3).
func (d *Domain) Widen(prev, next *State) *State {
	if d.Persist {
		return d.persistWiden(prev, next)
	}
	if prev.IsBottom {
		return next.Clone()
	}
	if next.IsBottom {
		return prev.Clone()
	}
	out := next.Clone()
	for i := 0; i < len(out.must); i++ {
		nm, pm := next.must[i], prev.must[i]
		if nm != 0 && (pm == 0 || nm > pm) {
			out.must[i] = 0
		}
		ns, ps := next.shadow[i], prev.shadow[i]
		if (ns != 0 && (ps == 0 || ns < ps)) || (ns == 0 && ps != 0) {
			out.shadow[i] = 1
		}
	}
	return out
}

// Saturate clamps x, in place, against a fixed reference state: any must age
// strictly above the reference's jumps to evicted, and any shadow age
// strictly below the reference's (or present where the reference has none)
// jumps to 1. Unlike Widen — whose prev is the evolving previous iterate —
// the reference here never changes, which makes Saturate a *monotone*
// function of x: each dimension either passes through unchanged or maps to
// the join-absorbing extreme, and the threshold it is compared against is
// constant. Applying it to every loop-head contribution therefore keeps the
// enclosing fixpoint a monotone system with a unique, visit-order-independent
// least solution. (Widen's extra rule "shadow disappeared → 1" is deliberately
// absent: it maps the dimension's bottom above values it is ordered below,
// which is exactly the non-monotonicity this transform exists to avoid.)
// The result over-approximates x, so saturation preserves soundness.
func (d *Domain) Saturate(ref, x *State) {
	if ref.IsBottom || x.IsBottom {
		return
	}
	for i := 0; i < len(x.must); i++ {
		xm, rm := x.must[i], ref.must[i]
		if d.Persist {
			if xm > rm {
				x.must[i] = persistTop
			}
		} else if xm != 0 && (rm == 0 || xm > rm) {
			x.must[i] = 0
		}
		xs, rs := x.shadow[i], ref.shadow[i]
		if xs != 0 && (rs == 0 || xs < rs) {
			x.shadow[i] = 1
		}
	}
}

// Classify judges one access against the state: it is an AlwaysHit when all
// candidate blocks are must-cached, an AlwaysMiss when none may be cached,
// and Unknown otherwise.
func (d *Domain) Classify(s *State, acc Access) Classification {
	if d.Persist {
		return d.persistClassify(s, acc)
	}
	if s.IsBottom {
		return Unknown
	}
	assoc := d.assoc()
	allHit, allMiss := true, true
	for i := 0; i < acc.Count; i++ {
		b := acc.First + layout.BlockID(i)
		if !s.MustHit(b, assoc) {
			allHit = false
		}
		if s.MayBeCached(b) {
			allMiss = false
		}
	}
	switch {
	case allHit:
		return AlwaysHit
	case allMiss:
		return AlwaysMiss
	}
	return Unknown
}
