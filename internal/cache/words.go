package cache

import (
	"math/bits"

	"specabsint/internal/layout"
)

// The word kernels. A state keeps its ages four to a 64-bit word (see
// State.setLen), and where the ages fit in 15 bits the exact access and the
// join work on a word per step instead of a lane per step: each lane's top
// bit is then free, so a lane-wise compare is one subtraction that cannot
// borrow from the next lane. A compare yields a mask holding the top bit of
// every lane for which it holds; spread widens such a mask to whole lanes.

// maxWordAssoc is the largest associativity the word kernels run on. No age
// is older than assoc, and the exact access forms age+1 before it evicts
// what has passed assoc, so with assoc at most 2^15-2 every value a lane
// holds fits in its low 15 bits.
const maxWordAssoc = 1<<15 - 2

const (
	laneTops = 0x8000_8000_8000_8000 // every lane's top bit
	laneOnes = 0x0001_0001_0001_0001 // 1 in every lane
)

// wordKernels decides, from the geometry alone, where the word kernels
// replace the strided loops; it is the one place that decides it. The join
// is pointwise and does not stride over sets, so it runs on words whenever
// the ages fit in 15 bits. An exact access does so only on a cache with one
// set as well: with more sets the blocks it may age lie NumSets lanes
// apart. Caches of more than maxWordAssoc ways keep the strided loops, and
// so do the persistence domain's must loop and join, whose top age is
// 0xFFFF; its shadow pass is the must domain's.
func (d *Domain) wordKernels() (exact, join bool) {
	if d.assoc() > maxWordAssoc {
		return false, false
	}
	return d.L.Config.NumSets == 1, true
}

// fill returns a word holding a in every lane.
func fill(a uint16) uint64 { return uint64(a) * laneOnes }

// nonzero returns the top bit of every non-zero lane of x.
func nonzero(x uint64) uint64 { return ((x | laneTops) - laneOnes) & laneTops }

// atLeast returns the top bit of every lane in which x >= y. Every lane of
// both must be below 2^15: then a lane of (x | laneTops) - y never borrows
// from its neighbour, and keeps its top bit exactly when x >= y.
func atLeast(x, y uint64) uint64 { return ((x | laneTops) - y) & laneTops }

// spread widens a mask of lane top bits to a mask of whole lanes.
func spread(t uint64) uint64 { return t - t>>15 | t }

// lane returns the lane of x that holds bit t.
func lane(x uint64, t uint) int { return int(x >> (t &^ 15) & 0xFFFF) }

// shadowWords is shadowUpdateExact on a cache with one set. A word's lanes
// at 1..K, K being v's old shadow age, or all its non-zero lanes when K is
// 0, age by one, and those that pass assoc become 0; only a lane at assoc
// can pass it, so none does when K is below assoc. The histogram counts
// the new ages in 1..limit through a mask of those lanes.
func (d *Domain) shadowWords(s *State, v layout.BlockID, limit uint16) {
	assoc := uint16(d.assoc())
	k := s.shadow[v]
	s.shadow[v] = 0 // a zero lane is skipped; v's new age is set below
	var hist []int
	if limit > 0 {
		hist = d.histogram()
	}
	evicts := k == 0 || k >= assoc
	past, lim, old := fill(assoc+1), fill(limit), fill(k)
	top := 1 // v's own new age
	_, shadow := s.wordViews()
	for i, x := range shadow {
		if x == 0 {
			continue
		}
		aged := nonzero(x)
		if k != 0 {
			aged &= atLeast(old, x)
		}
		x += aged >> 15
		if evicts {
			x &^= spread(atLeast(x, past) & aged)
		}
		shadow[i] = x
		for c := nonzero(x) & atLeast(lim, x); c != 0; c &= c - 1 {
			a := lane(x, uint(bits.TrailingZeros64(c)))
			hist[a]++
			top = max(top, a)
		}
	}
	s.shadow[v] = 1
	if limit > 0 {
		hist[1]++ // v itself
		d.cumulate(hist, top)
	}
}

// mustWords is accessExact's must pass on a cache with one set, for a block
// whose must lane the caller has zeroed and whose old must age was m. A
// word's candidates are its lanes at 1..m-1, or all its non-zero lanes when
// m is 0; with the NYoung rule on, shouldAge is asked about each candidate,
// and the ones it keeps age by one, those passing assoc becoming 0. A
// candidate below m stays within assoc, so only when m is 0 can one pass.
func (d *Domain) mustWords(s *State, m uint16) {
	assoc := uint16(d.assoc())
	evicts := m == 0 || m > assoc
	past := fill(assoc + 1)
	below := fill(m - 1) // read only when m > 0, which makes it m >= 2
	must, shadow := s.wordViews()
	shadow = shadow[:len(must)]
	for i, x := range must {
		if x == 0 {
			continue
		}
		c := nonzero(x)
		if m != 0 {
			c &= atLeast(below, x)
		}
		if d.Refined {
			for b := c; b != 0; b &= b - 1 {
				t := uint(bits.TrailingZeros64(b))
				if !d.shouldAge(lane(shadow[i], t), lane(x, t)) {
					c &^= 1 << t
				}
			}
		}
		if c == 0 {
			continue
		}
		x += c >> 15
		if evicts {
			x &^= spread(atLeast(x, past) & c)
		}
		must[i] = x
	}
}

// joinWords is JoinInto's loop on words: the must max in which 0 absorbs,
// and the shadow min in which 0 is neutral, four lanes per step. dst
// changed iff some word did, so changed is the OR of the words' XORs. A
// word equal in both states is left as it is.
func joinWords(dst, src *State) bool {
	var diff uint64
	dm, ds := dst.wordViews()
	sm, ss := src.wordViews()
	sm = sm[:len(dm)]
	for i, x := range dm {
		y := sm[i]
		if x == y {
			continue
		}
		older := spread(atLeast(y, x))
		out := (x&^older | y&older) & spread(nonzero(x)&nonzero(y))
		diff |= out ^ x
		dm[i] = out
	}
	ss = ss[:len(ds)]
	for i, x := range ds {
		y := ss[i]
		if x == y {
			continue
		}
		younger := spread(nonzero(y) &^ (nonzero(x) & atLeast(y, x)))
		out := x&^younger | y&younger
		diff |= out ^ x
		ds[i] = out
	}
	return diff != 0
}
