// Package cache implements the abstract cache domain of the paper: per-block
// LRU ages for a Must-Hit analysis (§4), the max-based join (Fig. 5), the
// aging transfer function (Fig. 4), and the shadow-variable refinement of
// Appendix B that keeps a May (youngest-age) component and uses it to avoid
// unnecessary aging (the NYoung rule, Fig. 12/13).
//
// States are dense age vectors indexed by block id: the analyses track every
// memory block of the program in every state, so a dense representation is
// both smaller and much faster than hash maps.
package cache

import (
	"fmt"
	"sort"
	"strings"

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
}

// NewState returns the empty-cache state over numBlocks blocks: nothing is
// guaranteed cached and nothing may be cached. Both vectors share one
// backing allocation (the fixpoint materializes one state per block × flow,
// so halving the allocation count matters).
func NewState(numBlocks int) *State {
	buf := make([]uint16, 2*numBlocks)
	return &State{must: buf[:numBlocks:numBlocks], shadow: buf[numBlocks:]}
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
	n := len(s.must)
	buf := make([]uint16, 2*n)
	copy(buf[:n], s.must)
	copy(buf[n:], s.shadow)
	return &State{must: buf[:n:n], shadow: buf[n:]}
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
	n := len(src.must)
	if cap(s.must) < n || cap(s.shadow) < n {
		buf := make([]uint16, 2*n)
		s.must = buf[:n:n]
		s.shadow = buf[n:]
	}
	s.must = s.must[:n]
	s.shadow = s.shadow[:n]
	copy(s.must, src.must)
	copy(s.shadow, src.shadow)
	s.IsBottom = false
}

// SetBottom marks s unreachable while keeping its buffers, so a later
// CopyFrom (e.g. via JoinInto's bottom case) reuses them instead of
// allocating. The pooled counterpart of Bottom().
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
