package cache

import (
	"math/rand"
	"slices"
	"testing"

	"specabsint/internal/layout"
)

// refAccessExact is the exact-access transfer as Appendix B states it, kept
// as the reference for accessExact. One pass ages the shadow ages of v's set
// and counts every new one into a full-height cumulative histogram; a second
// ages each must age younger than v's, or every one when v may be uncached,
// if the NYoung rule lets it.
func refAccessExact(d *Domain, s *State, v layout.BlockID) {
	assoc := d.assoc()
	stride := d.L.Config.NumSets
	prefix := make([]int, assoc+2)
	oldShadowV := int(s.shadow[v])
	for i := d.L.SetOf(v); i < len(s.shadow); i += stride {
		a := int(s.shadow[i])
		if a == 0 || i == int(v) {
			continue
		}
		if oldShadowV == 0 || a <= oldShadowV {
			a++
			if a > assoc {
				s.shadow[i] = 0
				continue
			}
			s.shadow[i] = uint16(a)
		}
		prefix[a]++
	}
	s.shadow[v] = 1
	prefix[1]++
	for a := 1; a < len(prefix); a++ {
		prefix[a] += prefix[a-1]
	}
	oldMustV := int(s.must[v])
	for i := d.L.SetOf(v); i < len(s.must); i += stride {
		a := int(s.must[i])
		if a == 0 || i == int(v) || (oldMustV != 0 && a >= oldMustV) {
			continue
		}
		if d.Refined {
			young := prefix[a] // NYoung: the shadow blocks as young as i, but i
			if sa := int(s.shadow[i]); sa != 0 && sa <= a {
				young--
			}
			if young < a {
				continue
			}
		}
		if a+1 > assoc {
			s.must[i] = 0
		} else {
			s.must[i] = uint16(a + 1)
		}
	}
	s.must[v] = 1
}

// refJoinInto is JoinInto's lane-by-lane loop, kept as the reference for
// the word join: the must max in which 0 absorbs and the shadow min in
// which 0 is neutral, with changed set when some age moves.
func refJoinInto(dst, src *State) bool {
	if src.IsBottom {
		return false
	}
	if dst.IsBottom {
		dst.CopyFrom(src)
		return true
	}
	changed := false
	for i := range dst.must {
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

// zeroPadded reports whether s's padding lanes, past its last block in the
// last word of each vector, are zero, as the word kernels need: a copy made
// block by block into a fresh state has zero padding, so its words equal
// s's exactly when s's padding is zero too.
func zeroPadded(s *State) bool {
	if s.IsBottom {
		return true
	}
	c := NewState(s.NumBlocks())
	copy(c.must, s.must)
	copy(c.shadow, s.shadow)
	return slices.Equal(c.buf(), s.buf())
}

// joinedStart is a state as a merge point sees it: the join of two random
// warm-ups of exact and range accesses, so that must and shadow ages
// disagree and several blocks share shadow age 1, then a shared tail of up
// to two exact accesses, whose last block is left at must age 1.
func joinedStart(d *Domain, rng *rand.Rand, blocks int) *State {
	warm := func() *State {
		st := NewState(d.L.NumBlocks)
		for i, n := 0, 1+rng.Intn(2*blocks); i < n; i++ {
			d.Transfer(st, randAccess(rng, blocks))
		}
		return st
	}
	st := d.Join(warm(), warm())
	for i, n := 0, rng.Intn(3); i < n; i++ {
		d.Transfer(st, Access{First: layout.BlockID(rng.Intn(blocks)), Count: 1})
	}
	return st
}

// FuzzExactAccess: one exact access through the kernel, which counts only
// the shadow ages its must pass can ask about and skips the must pass when
// the accessed block is youngest, must leave the state the full-height
// reference leaves, with its padding lanes zero. The input picks a
// walkShapes shape, which selects the word kernels or the strided loops,
// the NYoung rule on or off, the seed of a joinedStart and the accessed
// block. The seed corpus covers, on every shape and both rules, an accessed
// block that is uncached (must age 0), youngest (1), and at up to three
// middle must ages: 2 or more, below some must-cached block of its set, or
// at the associativity on a 2-way shape, which leaves no age in between.
func FuzzExactAccess(f *testing.F) {
	layouts := make([]*layout.Layout, len(walkShapes))
	for k, sh := range walkShapes {
		layouts[k] = propLayout(f, sh.blocks, sh.sets, sh.assoc)
	}
	start := func(shape uint8, refined bool, seed int64) (*Domain, *State) {
		k := int(shape) % len(walkShapes)
		d := &Domain{L: layouts[k], Refined: refined}
		return d, joinedStart(d, rand.New(rand.NewSource(seed)), walkShapes[k].blocks)
	}
	for k, sh := range walkShapes {
		for _, refined := range []bool{true, false} {
			var uncached, youngest bool
			middle := map[int]bool{} // the middle ages covered, up to three
			for seed := int64(0); !(uncached && youngest && len(middle) > 0); seed++ {
				if seed == 64 {
					f.Fatalf("shape %+v refined=%v: no start in 64 seeds covers every must age class", sh, refined)
				}
				_, st := start(uint8(k), refined, seed)
				for b := 0; b < sh.blocks; b++ {
					m, _ := st.Must(layout.BlockID(b))
					add := false
					switch {
					case m == 0:
						add, uncached = !uncached, true
					case m == 1:
						add, youngest = !youngest, true
					case len(middle) < 3 && !middle[m] && (m == sh.assoc || olderInSet(st, layouts[k], b, m)):
						add, middle[m] = true, true
					}
					if add {
						f.Add(uint8(k), refined, seed, uint16(b))
					}
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, shape uint8, refined bool, seed int64, block uint16) {
		d, st := start(shape, refined, seed)
		v := layout.BlockID(int(block) % st.NumBlocks())
		want := st.Clone()
		refAccessExact(d, want, v)
		m, _ := st.Must(v)
		before := st.Clone()
		d.Transfer(st, Access{First: v, Count: 1})
		if !st.Equal(want) {
			t.Fatalf("refined=%v, access to b%d at must age %d from\n %v\ngives\n %v\nthe reference gives\n %v",
				refined, v, m, before, st, want)
		}
		if !zeroPadded(st) {
			t.Fatalf("refined=%v, access to b%d at must age %d from\n %v\nleaves a padding lane non-zero", refined, v, m, before)
		}
	})
}

// FuzzJoinInto: JoinInto, on words wherever the ages fit in 15 bits, must
// leave the state refJoinInto leaves, report the same changed flag, and
// keep the padding lanes zero. The input picks a walkShapes shape, the
// NYoung rule the starts are built with, the seeds of two joinedStart
// states, so that their must and shadow ages disagree, tie and are 0 on
// one side only, and a mode: the two states as they are (0), the source
// (1) or the destination (2) bottom instead, or the source given the
// destination's must ages (3) or shadow ages (4), so that only the other
// vector can change. The seed corpus covers, on every shape, equal states
// (nothing changes), a bottom source, a bottom destination, two states
// with a must lane and a shadow lane that are each 0 in exactly one of
// them, and that pair in modes 3 and 4.
func FuzzJoinInto(f *testing.F) {
	layouts := make([]*layout.Layout, len(walkShapes))
	for k, sh := range walkShapes {
		layouts[k] = propLayout(f, sh.blocks, sh.sets, sh.assoc)
	}
	start := func(shape uint8, refined bool, seed int64) (*Domain, *State) {
		k := int(shape) % len(walkShapes)
		d := &Domain{L: layouts[k], Refined: refined}
		return d, joinedStart(d, rand.New(rand.NewSource(seed)), walkShapes[k].blocks)
	}
	// oneSided reports whether some block's must age and some block's
	// shadow age are 0 in exactly one of a and b.
	oneSided := func(a, b *State) bool {
		must, shadow := false, false
		for i := range a.must {
			must = must || (a.must[i] == 0) != (b.must[i] == 0)
			shadow = shadow || (a.shadow[i] == 0) != (b.shadow[i] == 0)
		}
		return must && shadow
	}
	for k, sh := range walkShapes {
		f.Add(uint8(k), true, int64(0), int64(0), uint8(0))
		f.Add(uint8(k), true, int64(0), int64(1), uint8(1))
		f.Add(uint8(k), true, int64(0), int64(1), uint8(2))
		for seed := int64(0); ; seed++ {
			if seed == 64 {
				f.Fatalf("shape %+v: no two starts in 64 seeds have a lane 0 in exactly one", sh)
			}
			_, a := start(uint8(k), false, seed)
			_, b := start(uint8(k), false, seed+1)
			if oneSided(a, b) {
				for _, mode := range []uint8{0, 3, 4} {
					f.Add(uint8(k), false, seed, seed+1, mode)
				}
				break
			}
		}
	}
	f.Fuzz(func(t *testing.T, shape uint8, refined bool, dstSeed, srcSeed int64, mode uint8) {
		d, dst := start(shape, refined, dstSeed)
		_, src := start(shape, refined, srcSeed)
		switch mode % 5 {
		case 1:
			src.SetBottom()
		case 2:
			dst.SetBottom()
		case 3:
			copy(src.must, dst.must)
		case 4:
			copy(src.shadow, dst.shadow)
		}
		want := dst.Clone()
		wantChanged := refJoinInto(want, src)
		before := dst.Clone()
		changed := d.JoinInto(dst, src)
		if !dst.Equal(want) || changed != wantChanged {
			t.Fatalf("joining\n %v\ninto\n %v\ngives\n %v (changed=%v)\nthe reference gives\n %v (changed=%v)",
				src, before, dst, changed, want, wantChanged)
		}
		if !zeroPadded(dst) {
			t.Fatalf("joining\n %v\ninto\n %v\nleaves a padding lane non-zero", src, before)
		}
	})
}

// olderInSet reports whether some block in b's cache set is must-cached at
// an age older than m.
func olderInSet(st *State, l *layout.Layout, b, m int) bool {
	for i := l.SetOf(layout.BlockID(b)); i < st.NumBlocks(); i += l.Config.NumSets {
		if a, ok := st.Must(layout.BlockID(i)); ok && a > m {
			return true
		}
	}
	return false
}
