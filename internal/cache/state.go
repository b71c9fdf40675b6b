// Package cache implements the abstract cache domain of the paper: per-block
// LRU ages for a Must-Hit analysis (§4), the max-based join (Fig. 5), the
// aging transfer function (Fig. 4), and the shadow-variable refinement of
// Appendix B that keeps a May (youngest-age) component and uses it to avoid
// unnecessary aging (the NYoung rule, Fig. 12/13).
//
// States are dense age vectors indexed by block id: the analyses track every
// memory block of the program in every state, so a dense representation is
// both smaller and much faster than hash maps. A state keeps its two vectors
// in one buffer of 64-bit words, four 16-bit ages (lanes) to a word, so that
// on a cache whose ages fit in 15 bits the join, and on such a cache with one
// set the exact access too, work on four blocks per step (words.go).
package cache

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"

	"specabsint/internal/layout"
)

// State is an abstract cache state.
//
// must[b] is an upper bound on b's LRU age within its cache set (1 =
// most-recently used); 0 encodes "possibly not cached" (age infinity). A
// block is guaranteed cached — a Must-Hit — iff must[b] is in 1..assoc.
//
// shadow[b] is a lower bound on b's age along *some* path (the paper's ∃v
// shadow variables); 0 encodes "definitely not cached on any path", which
// makes an access to b an Always-Miss.
type State struct {
	IsBottom bool
	must     []uint16
	shadow   []uint16
	// words is the one buffer must and shadow are views of: must's lanes
	// fill its first half and shadow's its second, each padded with zero
	// lanes to a whole number of words. See setLen.
	words []uint64
}

// NewState returns the empty-cache state over numBlocks blocks: nothing is
// guaranteed cached and nothing may be cached. Both vectors share one
// backing allocation (the fixpoint materializes one state per block × flow,
// so halving the allocation count matters).
func NewState(numBlocks int) *State {
	s := &State{}
	s.setLen(numBlocks)
	return s
}

// setLen lays s out for n blocks: w = ceil(n/4) words of must lanes, then w
// words of shadow lanes, in s.words, which grows if it is too short. The
// buffer is allocated as []uint64, so it is aligned for uint64 and hence
// for uint16, and word k of it holds exactly lanes 4k..4k+3 of the lane
// view over it. must starts at lane 0 and shadow at lane 4w, both on a word
// boundary, so block b's must and shadow ages sit at the same bit offset of
// must word b/4 and shadow word b/4, whatever the machine's byte order: a
// word kernel reads both ages of four blocks at one index. The views are
// cut to n lanes, so only word kernels see the padding lanes n..4w-1, and
// they keep them zero: each kernel maps a zero lane to zero. setLen leaves
// the contents as they were; a fresh buffer is zero, and CopyFrom
// overwrites every word, padding included.
func (s *State) setLen(n int) {
	w := (n + 3) / 4
	if cap(s.words) < 2*w {
		s.words = make([]uint64, 2*w)
	}
	s.words = s.words[:2*w]
	lanes := unsafe.Slice((*uint16)(unsafe.Pointer(unsafe.SliceData(s.words))), 8*w)
	s.must = lanes[:n:n]
	s.shadow = lanes[4*w : 4*w+n : 4*w+n]
}

// wordViews returns the must and shadow vectors as words of four lanes,
// padding lanes included.
func (s *State) wordViews() (must, shadow []uint64) {
	w := len(s.words) / 2
	return s.words[:w:w], s.words[w:]
}

// Bottom returns the unreachable state (identity of join).
func Bottom() *State { return &State{IsBottom: true} }

// NumBlocks returns the size of the block universe (0 for bottom).
func (s *State) NumBlocks() int {
	if s.IsBottom {
		return 0
	}
	return len(s.must)
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	if s.IsBottom {
		return Bottom()
	}
	c := NewState(len(s.must))
	copy(c.words, s.words)
	return c
}

// CopyFrom makes s a deep copy of src, reusing s's buffers when they are
// large enough. It is the allocation-free replacement for s = src.Clone():
// a state that has ever held buffers keeps them across bottom transitions,
// so fixpoint loops that repeatedly copy into the same slot stop allocating
// after the first round.
func (s *State) CopyFrom(src *State) {
	if src.IsBottom {
		s.IsBottom = true
		return
	}
	if len(s.must) != len(src.must) {
		s.setLen(len(src.must))
	}
	copy(s.words, src.words)
	s.IsBottom = false
}

// SetBottom marks s unreachable while keeping its buffers, so a later
// CopyFrom (e.g. via JoinInto's bottom case) reuses them instead of
// allocating. The in-place counterpart of Bottom().
func (s *State) SetBottom() { s.IsBottom = true }

// Equal reports structural equality.
func (s *State) Equal(o *State) bool {
	if s.IsBottom || o.IsBottom {
		return s.IsBottom == o.IsBottom
	}
	if len(s.must) != len(o.must) {
		return false
	}
	for i := range s.must {
		if s.must[i] != o.must[i] || s.shadow[i] != o.shadow[i] {
			return false
		}
	}
	return true
}

// Must returns b's must age and whether b is must-cached.
func (s *State) Must(b layout.BlockID) (int, bool) {
	if s.IsBottom || int(b) >= len(s.must) || s.must[b] == 0 {
		return 0, false
	}
	return int(s.must[b]), true
}

// Shadow returns b's shadow (may) age and whether b may be cached.
func (s *State) Shadow(b layout.BlockID) (int, bool) {
	if s.IsBottom || int(b) >= len(s.shadow) || s.shadow[b] == 0 {
		return 0, false
	}
	return int(s.shadow[b]), true
}

// SetMust records a must age (age >= 1); used by transfer and tests.
func (s *State) SetMust(b layout.BlockID, age int) { s.must[b] = uint16(age) }

// ClearMust marks b as possibly evicted.
func (s *State) ClearMust(b layout.BlockID) { s.must[b] = 0 }

// SetShadow records a shadow age (age >= 1).
func (s *State) SetShadow(b layout.BlockID, age int) { s.shadow[b] = uint16(age) }

// ClearShadow marks b as definitely not cached on any path.
func (s *State) ClearShadow(b layout.BlockID) { s.shadow[b] = 0 }

// MustHit reports whether an access to block b is guaranteed to hit.
func (s *State) MustHit(b layout.BlockID, assoc int) bool {
	if s.IsBottom {
		return true // vacuous: no execution reaches this point
	}
	a, ok := s.Must(b)
	return ok && a <= assoc
}

// MayBeCached reports whether b may be cached on some path.
func (s *State) MayBeCached(b layout.BlockID) bool {
	_, ok := s.Shadow(b)
	return ok
}

// MustCount returns the number of must-cached blocks.
func (s *State) MustCount() int {
	if s.IsBottom {
		return 0
	}
	n := 0
	for _, a := range s.must {
		if a != 0 {
			n++
		}
	}
	return n
}

// ForEachMust calls fn for every must-cached block.
func (s *State) ForEachMust(fn func(b layout.BlockID, age int)) {
	if s.IsBottom {
		return
	}
	for i, a := range s.must {
		if a != 0 {
			fn(layout.BlockID(i), int(a))
		}
	}
}

// ForEachShadow calls fn for every may-cached block.
func (s *State) ForEachShadow(fn func(b layout.BlockID, age int)) {
	if s.IsBottom {
		return
	}
	for i, a := range s.shadow {
		if a != 0 {
			fn(layout.BlockID(i), int(a))
		}
	}
}

// String renders the state in the paper's {youngest, ..., oldest} style,
// grouping blocks by age.
func (s *State) String() string {
	return s.Format(nil)
}

// Format renders the state, using l (if non-nil) for block names.
func (s *State) Format(l *layout.Layout) string {
	if s.IsBottom {
		return "⊥"
	}
	name := func(b layout.BlockID) string {
		if l != nil {
			return l.BlockName(b)
		}
		return fmt.Sprintf("b%d", b)
	}
	byAge := map[int][]string{}
	maxAge := 0
	s.ForEachMust(func(b layout.BlockID, a int) {
		byAge[a] = append(byAge[a], name(b))
		if a > maxAge {
			maxAge = a
		}
	})
	s.ForEachShadow(func(b layout.BlockID, a int) {
		if m, ok := s.Must(b); !ok || m != a {
			byAge[a] = append(byAge[a], "∃"+name(b))
			if a > maxAge {
				maxAge = a
			}
		}
	})
	var parts []string
	for age := 1; age <= maxAge; age++ {
		entries := byAge[age]
		sort.Strings(entries)
		parts = append(parts, "{"+strings.Join(entries, ",")+"}")
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// MustBlocks returns the must-cached blocks sorted by (age, id).
func (s *State) MustBlocks() []layout.BlockID {
	var ids []layout.BlockID
	s.ForEachMust(func(b layout.BlockID, _ int) { ids = append(ids, b) })
	sort.Slice(ids, func(i, j int) bool {
		ai, aj := s.must[ids[i]], s.must[ids[j]]
		if ai != aj {
			return ai < aj
		}
		return ids[i] < ids[j]
	})
	return ids
}
