package cache

import (
	"math/rand"
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
	for i := d.setStart(v); i < len(s.shadow); i += stride {
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
	for i := d.setStart(v); i < len(s.must); i += stride {
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
// reference leaves. The input picks a walkShapes shape, the NYoung rule on
// or off, the seed of a joinedStart and the accessed block. The seed corpus
// covers, on every shape and both rules, an accessed block that is
// uncached (must age 0), youngest (1), and at up to three middle must
// ages: 2 or more, below some must-cached block of its set, or at the
// associativity on a 2-way shape, which leaves no age in between.
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
