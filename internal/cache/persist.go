package cache

import "specabsint/internal/layout"

// Persistence analysis (Ferdinand's third cache analysis, cited by the
// paper alongside must/may): a block is *persistent* at an access when,
// once it has been loaded, no path can evict it again — so all dynamic
// executions of the access miss at most once in total ("first miss").
//
// The domain reuses State's must vector with a different encoding:
//
//	0            — ⊥: never loaded yet (join identity)
//	1..assoc     — upper bound of the block's age since its first load
//	persistTop   — may have been evicted after loading (sticky)
//
// Ages never shrink (re-accessing a block does not rejuvenate its tracked
// maximum), joins take the pointwise max (persistTop absorbs, 0 is the
// identity — both fall out of plain max), and an access is classified
// persistent (reported as AlwaysHit) when no candidate block is persistTop.
// The shadow vector keeps its usual may semantics for AlwaysMiss reporting.
const persistTop = ^uint16(0)

// persistAccessExact ages every loaded block in v's set and marks v loaded.
func (d *Domain) persistAccessExact(s *State, v layout.BlockID) {
	assoc := d.assoc()
	stride := d.L.Config.NumSets
	d.shadowUpdateExact(s, v) // may component unchanged in meaning

	oldV := s.must[v]
	for i := d.setStart(v); i < len(s.must); i += stride {
		a := s.must[i]
		if a == 0 || a == persistTop || layout.BlockID(i) == v {
			continue
		}
		// v's (re)load can push u down only if u sits above v's position;
		// when v's age is unknown (fresh or evicted) assume the worst.
		if oldV != 0 && oldV != persistTop && a >= oldV {
			continue
		}
		if int(a)+1 > assoc {
			s.must[i] = persistTop
		} else {
			s.must[i] = a + 1
		}
	}
	if s.must[v] == 0 {
		s.must[v] = 1
	}
	// A re-access does NOT lower the tracked maximum age (and persistTop is
	// sticky): the quantity is "oldest the block has ever been".
}

// persistAccessRange handles an unknown-target access: every loaded block in
// an affected set may age; candidates count as loaded from now on (starting
// the clock early only raises the tracked maximum — sound).
func (d *Domain) persistAccessRange(s *State, acc Access) {
	assoc := d.assoc()
	numSets := d.L.Config.NumSets
	affected := d.affectedSets(acc)
	for i := 0; i < acc.Count; i++ {
		b := acc.First + layout.BlockID(i)
		s.shadow[b] = 1
		if s.must[b] == 0 {
			s.must[b] = 1
		}
	}
	for _, set := range affected {
		for i := set; i < len(s.must); i += numSets {
			a := s.must[i]
			if a == 0 || a == persistTop {
				continue
			}
			if int(a)+1 > assoc {
				s.must[i] = persistTop
			} else {
				s.must[i] = a + 1
			}
		}
	}
}

// persistJoinInto merges with pointwise max: persistTop absorbs and ⊥ (0)
// is the identity, both directly from uint16 ordering.
func (d *Domain) persistJoinInto(dst, src *State) bool {
	if src.IsBottom {
		return false
	}
	if dst.IsBottom {
		dst.CopyFrom(src)
		return true
	}
	changed := false
	for i := 0; i < len(dst.must); i++ {
		if src.must[i] > dst.must[i] {
			dst.must[i] = src.must[i]
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

// persistLeq is the pointwise order matching persistJoinInto.
func (d *Domain) persistLeq(a, b *State) bool {
	if a.IsBottom {
		return true
	}
	if b.IsBottom {
		return false
	}
	for i := 0; i < len(a.must); i++ {
		if a.must[i] > b.must[i] {
			return false
		}
		as, bs := a.shadow[i], b.shadow[i]
		if as != 0 && (bs == 0 || bs > as) {
			return false
		}
	}
	return true
}

// persistWiden jumps growing ages straight to persistTop.
func (d *Domain) persistWiden(prev, next *State) *State {
	if prev.IsBottom {
		return next.Clone()
	}
	if next.IsBottom {
		return prev.Clone()
	}
	out := next.Clone()
	for i := 0; i < len(out.must); i++ {
		if next.must[i] > prev.must[i] && prev.must[i] != 0 {
			out.must[i] = persistTop
		}
		ns, ps := next.shadow[i], prev.shadow[i]
		if (ns != 0 && (ps == 0 || ns < ps)) || (ns == 0 && ps != 0) {
			out.shadow[i] = 1
		}
	}
	return out
}

// persistClassify reports AlwaysHit ("persistent": at most one miss across
// all executions of the access) when no candidate may have been evicted
// after loading; AlwaysMiss keeps its usual may-based meaning.
func (d *Domain) persistClassify(s *State, acc Access) Classification {
	if s.IsBottom {
		return Unknown
	}
	persistent, allMiss := true, true
	for i := 0; i < acc.Count; i++ {
		b := acc.First + layout.BlockID(i)
		if s.must[b] == persistTop {
			persistent = false
		}
		if s.MayBeCached(b) {
			allMiss = false
		}
	}
	switch {
	case persistent:
		return AlwaysHit
	case allMiss:
		return AlwaysMiss
	}
	return Unknown
}
