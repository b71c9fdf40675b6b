package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"specabsint/internal/ir"
	"specabsint/internal/layout"
)

// propLayout builds a layout over nBlocks scalar line-sized symbols with the
// given set count.
func propLayout(t testing.TB, nBlocks, numSets, assoc int) *layout.Layout {
	t.Helper()
	bd := ir.NewBuilder("prop")
	for i := 0; i < nBlocks; i++ {
		bd.AddSymbol(symName(i), 64, 1, false, nil)
	}
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	bd.Ret(ir.ConstVal(0))
	prog := bd.Finish(entry)
	l, err := layout.New(prog, layout.CacheConfig{LineSize: 64, NumSets: numSets, Assoc: assoc})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func symName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}

// concreteLRU is a reference LRU cache used as the ground truth: sets of
// blocks ordered youngest first.
type concreteLRU struct {
	numSets, assoc int
	sets           [][]layout.BlockID
}

func newConcreteLRU(numSets, assoc int) *concreteLRU {
	return &concreteLRU{numSets: numSets, assoc: assoc, sets: make([][]layout.BlockID, numSets)}
}

func (c *concreteLRU) access(b layout.BlockID) {
	set := int(b) % c.numSets
	ways := c.sets[set]
	for i, w := range ways {
		if w == b {
			copy(ways[1:i+1], ways[:i])
			ways[0] = b
			return
		}
	}
	if len(ways) < c.assoc {
		ways = append(ways, 0)
	}
	copy(ways[1:], ways)
	ways[0] = b
	c.sets[set] = ways
}

func (c *concreteLRU) ageOf(b layout.BlockID) int {
	set := int(b) % c.numSets
	for i, w := range c.sets[set] {
		if w == b {
			return i + 1
		}
	}
	return c.assoc + 1
}

// TestPropertyMustAgeIsUpperBound drives random access sequences through
// both the abstract transfer and the concrete LRU and checks the paper's
// central domain invariants:
//
//   - the must age is an upper bound on the concrete age (so a must-hit
//     verdict implies a concrete hit), and
//   - the shadow age is a lower bound (so "not may-cached" implies a
//     concrete miss).
func TestPropertyMustAgeIsUpperBound(t *testing.T) {
	shapes := []struct{ blocks, sets, assoc int }{
		{8, 1, 4},
		{12, 2, 3},
		{16, 4, 2},
		{6, 1, 8},
		{40, 1, 512}, // assoc ≫ universe: the NYoung histogram is cut short
	}
	for _, refined := range []bool{true, false} {
		for _, sh := range shapes {
			l := propLayout(t, sh.blocks, sh.sets, sh.assoc)
			d := &Domain{L: l, Refined: refined}
			for seed := int64(0); seed < 30; seed++ {
				rng := rand.New(rand.NewSource(seed))
				st := NewState(d.L.NumBlocks)
				conc := newConcreteLRU(sh.sets, sh.assoc)
				for step := 0; step < 200; step++ {
					b := layout.BlockID(rng.Intn(sh.blocks))
					d.Transfer(st, Access{First: b, Count: 1})
					conc.access(b)
					for blk := 0; blk < sh.blocks; blk++ {
						id := layout.BlockID(blk)
						ca := conc.ageOf(id)
						if ma, ok := st.Must(id); ok && ma < ca {
							t.Fatalf("refined=%v shape=%+v seed=%d step=%d: block %d must age %d < concrete %d",
								refined, sh, seed, step, blk, ma, ca)
						}
						if sa, ok := st.Shadow(id); ok {
							if sa > ca && ca <= sh.assoc {
								t.Fatalf("refined=%v shape=%+v seed=%d step=%d: block %d shadow age %d > concrete %d",
									refined, sh, seed, step, blk, sa, ca)
							}
						} else if ca <= sh.assoc {
							t.Fatalf("refined=%v shape=%+v seed=%d step=%d: block %d cached concretely (age %d) but not may-cached",
								refined, sh, seed, step, blk, ca)
						}
					}
				}
			}
		}
	}
}

// randAccess picks an exact access or, one time in three, a range access of
// 2..8 candidate blocks, all within the first span blocks.
func randAccess(rng *rand.Rand, span int) Access {
	if span < 2 || rng.Intn(3) > 0 {
		return Access{First: layout.BlockID(rng.Intn(span)), Count: 1}
	}
	count := 2 + rng.Intn(min(span-1, 7))
	return Access{First: layout.BlockID(rng.Intn(span - count + 1)), Count: count}
}

// TestPropertyNYoungScratchInvisible: a Domain reuses one NYoung histogram
// across transfers, cut to the height of the ages it last counted. Reusing
// it across states whose histograms differ in height — a state warmed over
// the whole universe, with shadow ages up to assoc, interleaved with states
// confined to a few blocks — must give exactly the states a fresh Domain
// gives per transfer, on every shape in walkShapes.
func TestPropertyNYoungScratchInvisible(t *testing.T) {
	for _, sh := range walkShapes {
		l := propLayout(t, sh.blocks, sh.sets, sh.assoc)
		shared := NewDomain(l)
		spans := []int{sh.blocks, min(sh.blocks, 24), 3}
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			states := make([]*State, len(spans))
			for k := range states {
				states[k] = NewState(l.NumBlocks)
			}
			step := func(k int) {
				acc := randAccess(rng, spans[k])
				want := states[k].Clone()
				NewDomain(l).Transfer(want, acc)
				shared.Transfer(states[k], acc)
				if !states[k].Equal(want) {
					t.Fatalf("shape=%+v seed=%d span=%d access=%+v: reused domain gives\n %v\nfresh domain gives\n %v",
						sh, seed, spans[k], acc, states[k], want)
				}
			}
			for i := 0; i < 2*sh.blocks; i++ {
				step(0)
			}
			for i := 0; i < 1000; i++ {
				step(rng.Intn(len(states)))
			}
		}
	}
}

// walkShapes are the cache shapes the kernel and rollback walk properties
// run on: the paper's 512-way cache over a universe smaller and larger than
// the ways, a 64-set × 8-way cache, and two small shapes that evict often.
// Two universes of the paper's cache are not a multiple of four blocks, so
// the last word of each vector holds padding lanes beside blocks an access
// touches or ages: 5 blocks (one lane of the second word) and 23 (three of
// the sixth). At 40,000 ways a cache with one set is past maxWordAssoc, so
// its exact accesses and joins keep the strided loops, as the 64-set
// cache's exact accesses do.
var walkShapes = []struct{ blocks, sets, assoc int }{
	{24, 1, 512},
	{600, 1, 512},
	{512, 64, 8},
	{16, 4, 2},
	{8, 1, 4},
	{5, 1, 512},
	{23, 1, 512},
	{24, 1, 40000},
}

// TestPropertyRollbackClosedForm checks the law Walk builds its rollback
// by. A lane's rollback joins the state after every access of the walk. A
// block the walk never touches only ages: on the must side toward 0
// (evicted), which absorbs the join, or toward the persistence domain's
// top, the largest value of its plain-max join; on the shadow side toward
// 0, which the join ignores. So its rollback must age is the final state's,
// and its rollback shadow age is the one after the first step.
func TestPropertyRollbackClosedForm(t *testing.T) {
	domains := []struct{ refined, persist bool }{
		{true, false},
		{false, false},
		{false, true}, // persistence, as core.AnalyzePersistence sets it
	}
	checked := 0
	for _, dc := range domains {
		for _, sh := range walkShapes {
			l := propLayout(t, sh.blocks, sh.sets, sh.assoc)
			d := &Domain{L: l, Refined: dc.refined, Persist: dc.persist}
			// Walks start from a join of two random states, so must and
			// shadow ages disagree; each start state serves eight walks.
			var start *State
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				if seed%8 == 0 {
					start = d.Join(randState(d, rng, sh.blocks, 2*sh.blocks), randState(d, rng, sh.blocks, sh.blocks))
				}
				st := start.Clone()
				touched := make([]bool, sh.blocks)
				rollback := Bottom()
				var first *State
				for i, n := 0, 1+rng.Intn(12); i < n; i++ {
					acc := randAccess(rng, sh.blocks)
					for c := 0; c < acc.Count; c++ {
						touched[int(acc.First)+c] = true
					}
					d.Transfer(st, acc)
					d.JoinInto(rollback, st)
					if first == nil {
						first = st.Clone()
					}
				}
				for blk := 0; blk < sh.blocks; blk++ {
					if touched[blk] {
						continue
					}
					checked++
					id := layout.BlockID(blk)
					rm, rok := rollback.Must(id)
					fm, fok := st.Must(id)
					if rm != fm || rok != fok {
						t.Fatalf("domain=%+v shape=%+v seed=%d: untouched block %d has rollback must age %d, final %d",
							dc, sh, seed, blk, rm, fm)
					}
					rs, rsok := rollback.Shadow(id)
					fs, fsok := first.Shadow(id)
					if rs != fs || rsok != fsok {
						t.Fatalf("domain=%+v shape=%+v seed=%d: untouched block %d has rollback shadow age %d, after the first step %d",
							dc, sh, seed, blk, rs, fs)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no walk left a block untouched")
	}
	t.Logf("%d untouched blocks checked", checked)
}

// TestPropertyWalkMatchesStepwiseJoin: Walk's final state, rollback and
// verdicts must equal a Classify, Transfer and JoinInto per access, on
// random starts and random walks of 0–12 exact, range and whole-universe
// accesses, one in four of them a repeat of the access before it, with the
// NYoung rule on and off, in the must and the persistence domain, over every
// shape in walkShapes.
func TestPropertyWalkMatchesStepwiseJoin(t *testing.T) {
	walks := 0
	for _, refined := range []bool{true, false} {
		for _, persist := range []bool{false, true} {
			for _, sh := range walkShapes {
				l := propLayout(t, sh.blocks, sh.sets, sh.assoc)
				d := &Domain{L: l, Refined: refined, Persist: persist}
				ref := &Domain{L: l, Refined: refined, Persist: persist}
				rollback := Bottom() // reused across walks, as the engine's scratch state is
				var start *State
				for seed := int64(0); seed < 48; seed++ {
					rng := rand.New(rand.NewSource(seed))
					if seed%8 == 0 {
						start = d.Join(randState(d, rng, sh.blocks, 2*sh.blocks), randState(d, rng, sh.blocks, sh.blocks))
					}
					accs := make([]Access, rng.Intn(13))
					for i := range accs {
						switch {
						case i > 0 && rng.Intn(4) == 0:
							// A repeat, as consecutive fetches of one code
							// line make; a wrong-path spill may name
							// another symbol for the same block.
							accs[i] = accs[i-1]
							accs[i].Sym++
						case rng.Intn(8) == 0:
							accs[i] = Access{First: 0, Count: sh.blocks}
						default:
							accs[i] = randAccess(rng, sh.blocks)
						}
					}
					wantSt, wantRb := start.Clone(), Bottom()
					want := make([]Classification, len(accs))
					for i, acc := range accs {
						want[i] = ref.Classify(wantSt, acc)
						ref.Transfer(wantSt, acc)
						ref.JoinInto(wantRb, wantSt)
					}
					st := start.Clone()
					got := make([]Classification, len(accs))
					d.Walk(st, rollback, accs, got)
					walks++
					where := func() string {
						return fmt.Sprintf("refined=%v persist=%v shape=%+v seed=%d walk=%+v", refined, persist, sh, seed, accs)
					}
					if !st.Equal(wantSt) {
						t.Fatalf("%s: final state\n %v\nwant\n %v", where(), st, wantSt)
					}
					if !rollback.Equal(wantRb) {
						t.Fatalf("%s: rollback\n %v\nwant\n %v", where(), rollback, wantRb)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: verdicts %v, want %v", where(), got, want)
					}
				}
			}
		}
	}
	t.Logf("%d walks checked", walks)
}

// TestPropertyExactRepeatIsIdentity: in the must domain, with the NYoung
// rule on and off, an exact access to the block the access before it
// touched leaves the state Equal, which is what lets Repeats skip its
// Transfer. Under persistence a re-access ages again every block younger
// than the block's oldest age: Repeats must not hold there, and some start
// must show the state changing.
func TestPropertyExactRepeatIsIdentity(t *testing.T) {
	domains := []struct{ refined, persist bool }{
		{true, false},
		{false, false},
		{false, true}, // persistence, as core.AnalyzePersistence sets it
	}
	for _, dc := range domains {
		changed := 0
		for _, sh := range walkShapes {
			l := propLayout(t, sh.blocks, sh.sets, sh.assoc)
			d := &Domain{L: l, Refined: dc.refined, Persist: dc.persist}
			for seed := int64(0); seed < 16; seed++ {
				rng := rand.New(rand.NewSource(seed))
				start := joinedStart(d, rng, sh.blocks)
				for range 8 {
					acc := Access{First: layout.BlockID(rng.Intn(sh.blocks)), Count: 1}
					again := acc
					again.Sym++ // a wrong-path spill may name another symbol
					if d.Repeats(acc, again) == dc.persist {
						t.Fatalf("domain=%+v: Repeats(%+v, %+v) = %v", dc, acc, again, !dc.persist)
					}
					st := start.Clone()
					d.Transfer(st, acc)
					once := st.Clone()
					d.Transfer(st, again)
					if st.Equal(once) {
						continue
					}
					if !dc.persist {
						t.Fatalf("domain=%+v shape=%+v seed=%d: a second access to b%d turns\n %v\ninto\n %v",
							dc, sh, seed, acc.First, once, st)
					}
					changed++
				}
			}
		}
		if dc.persist && changed == 0 {
			t.Fatal("persistence: no re-access changed its state")
		}
		if dc.persist {
			t.Logf("persistence: %d re-accesses changed their state", changed)
		}
	}
}

// TestPropertyJoinCoversBothPaths models two divergent access sequences that
// re-merge: the joined abstract state must be sound for whichever path ran.
func TestPropertyJoinCoversBothPaths(t *testing.T) {
	const blocks, assoc = 10, 5
	l := propLayout(t, blocks, 1, assoc)
	d := NewDomain(l)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prefix := randSeq(rng, blocks, 30)
		armA := randSeq(rng, blocks, 15)
		armB := randSeq(rng, blocks, 15)

		absA, absB := NewState(d.L.NumBlocks), NewState(d.L.NumBlocks)
		concA, concB := newConcreteLRU(1, assoc), newConcreteLRU(1, assoc)
		for _, b := range prefix {
			d.Transfer(absA, Access{First: b, Count: 1})
			d.Transfer(absB, Access{First: b, Count: 1})
			concA.access(b)
			concB.access(b)
		}
		for _, b := range armA {
			d.Transfer(absA, Access{First: b, Count: 1})
			concA.access(b)
		}
		for _, b := range armB {
			d.Transfer(absB, Access{First: b, Count: 1})
			concB.access(b)
		}
		joined := d.Join(absA, absB)
		for blk := 0; blk < blocks; blk++ {
			id := layout.BlockID(blk)
			for _, conc := range []*concreteLRU{concA, concB} {
				ca := conc.ageOf(id)
				if ma, ok := joined.Must(id); ok && ma < ca {
					t.Fatalf("seed %d: joined must age %d < concrete %d for block %d",
						seed, ma, ca, blk)
				}
				if !joined.MayBeCached(id) && ca <= assoc {
					t.Fatalf("seed %d: block %d cached on a path but not may-cached after join",
						seed, blk)
				}
			}
		}
	}
}

func randSeq(rng *rand.Rand, blocks, n int) []layout.BlockID {
	out := make([]layout.BlockID, n)
	for i := range out {
		out[i] = layout.BlockID(rng.Intn(blocks))
	}
	return out
}

// TestPropertyRangeAccessCoversAllResolutions: an unknown access resolved to
// any candidate must be covered by the range transfer.
func TestPropertyRangeAccessCoversAllResolutions(t *testing.T) {
	const blocks, assoc = 8, 4
	l := propLayout(t, blocks, 1, assoc)
	d := NewDomain(l)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prefix := randSeq(rng, blocks, 25)
		first := layout.BlockID(rng.Intn(blocks - 2))
		count := 2 + rng.Intn(int(layout.BlockID(blocks)-first)-1)

		abs := NewState(d.L.NumBlocks)
		conc := newConcreteLRU(1, assoc)
		for _, b := range prefix {
			d.Transfer(abs, Access{First: b, Count: 1})
			conc.access(b)
		}
		d.Transfer(abs, Access{First: first, Count: count})

		// Concretely, the access resolved to SOME candidate; the abstract
		// state must be sound for every resolution.
		for pick := 0; pick < count; pick++ {
			c2 := newConcreteLRU(1, assoc)
			for _, b := range prefix {
				c2.access(b)
			}
			c2.access(first + layout.BlockID(pick))
			for blk := 0; blk < blocks; blk++ {
				id := layout.BlockID(blk)
				ca := c2.ageOf(id)
				if ma, ok := abs.Must(id); ok && ma < ca {
					t.Fatalf("seed %d pick %d: must age %d < concrete %d for block %d",
						seed, pick, ma, ca, blk)
				}
				if !abs.MayBeCached(id) && ca <= assoc {
					t.Fatalf("seed %d pick %d: block %d cached concretely but not may-cached",
						seed, pick, blk)
				}
			}
		}
	}
}

// TestPropertyTransferMonotone: x ⊑ y implies Transfer(x) ⊑ Transfer(y) —
// the fixpoint engine's convergence argument rests on this.
func TestPropertyTransferMonotone(t *testing.T) {
	const blocks, assoc = 8, 4
	l := propLayout(t, blocks, 1, assoc)
	for _, refined := range []bool{true, false} {
		d := &Domain{L: l, Refined: refined}
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			x := NewState(d.L.NumBlocks)
			for _, b := range randSeq(rng, blocks, 20) {
				d.Transfer(x, Access{First: b, Count: 1})
			}
			// y = x joined with another state is ⊒ x.
			other := NewState(d.L.NumBlocks)
			for _, b := range randSeq(rng, blocks, 20) {
				d.Transfer(other, Access{First: b, Count: 1})
			}
			y := d.Join(x, other)
			if !d.Leq(x, y) {
				t.Fatalf("seed %d: join not an upper bound", seed)
			}
			acc := Access{First: layout.BlockID(rng.Intn(blocks)), Count: 1}
			x2, y2 := x.Clone(), y.Clone()
			d.Transfer(x2, acc)
			d.Transfer(y2, acc)
			if !d.Leq(x2, y2) {
				t.Fatalf("refined=%v seed %d: transfer not monotone for %v\n x=%v\n y=%v\n x'=%v\n y'=%v",
					refined, seed, acc, x, y, x2, y2)
			}
		}
	}
}

// randState drives a random access sequence into a fresh state.
func randState(d *Domain, rng *rand.Rand, blocks, n int) *State {
	st := NewState(d.L.NumBlocks)
	for _, b := range randSeq(rng, blocks, n) {
		d.Transfer(st, Access{First: b, Count: 1})
	}
	return st
}

// TestPropertyCopyFromMatchesClone: CopyFrom into a reused state — including
// across bottom transitions — must be indistinguishable from Clone.
func TestPropertyCopyFromMatchesClone(t *testing.T) {
	const blocks, assoc = 10, 4
	l := propLayout(t, blocks, 1, assoc)
	d := NewDomain(l)
	dst := NewState(d.L.NumBlocks)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var src *State
		switch seed % 3 {
		case 0:
			src = randState(d, rng, blocks, 25)
		case 1:
			src = Bottom()
		default:
			src = NewState(d.L.NumBlocks)
		}
		if seed%2 == 0 {
			dst.SetBottom() // must not poison the next CopyFrom
		}
		dst.CopyFrom(src)
		if !dst.Equal(src) || !src.Equal(dst) {
			t.Fatalf("seed %d: CopyFrom result differs from source", seed)
		}
		if !src.IsBottom {
			// Deep copy: mutating dst must not write through to src.
			d.Transfer(dst, Access{First: 0, Count: 1})
			if dst.Equal(src) && src.MustCount() != dst.MustCount() {
				t.Fatalf("seed %d: CopyFrom aliased source buffers", seed)
			}
			dst.CopyFrom(src)
			if !dst.Equal(src) {
				t.Fatalf("seed %d: second CopyFrom differs from source", seed)
			}
		}
	}
}

// TestPropertyPoolReuse: a reused scratch state, like the engine's, carries
// no trace of its previous contents once reinitialized with SetBottom and
// CopyFrom.
func TestPropertyPoolReuse(t *testing.T) {
	const blocks, assoc = 10, 4
	l := propLayout(t, blocks, 1, assoc)
	d := NewDomain(l)

	rng := rng40()
	ref := randState(d, rng, blocks, 25)
	s := randState(d, rng, blocks, 25) // its previous contents
	s.CopyFrom(ref)
	if !s.Equal(ref) {
		t.Fatal("scratch state differs from its source after CopyFrom")
	}
	s.CopyFrom(randState(d, rng, blocks, 25)) // another use
	s.SetBottom()
	s.CopyFrom(ref)
	if !s.Equal(ref) {
		t.Fatal("reused state differs from source after SetBottom+CopyFrom")
	}
}

func rng40() *rand.Rand { return rand.New(rand.NewSource(40)) }

// TestQuickCloneEquality uses testing/quick to fuzz Clone/Equal consistency.
func TestQuickCloneEquality(t *testing.T) {
	const blocks, assoc = 8, 4
	l := propLayout(t, blocks, 1, assoc)
	d := NewDomain(l)
	f := func(seq []uint8) bool {
		st := NewState(d.L.NumBlocks)
		for _, v := range seq {
			d.Transfer(st, Access{First: layout.BlockID(int(v) % blocks), Count: 1})
		}
		c := st.Clone()
		if !st.Equal(c) || !c.Equal(st) {
			return false
		}
		// Mutating the clone must break equality.
		if len(seq) > 0 {
			d.Transfer(c, Access{First: layout.BlockID(int(seq[0]+1) % blocks), Count: 1})
			_ = c
		}
		return st.Equal(st.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
