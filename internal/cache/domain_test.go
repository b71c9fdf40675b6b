package cache

import (
	"testing"

	"specabsint/internal/ir"
	"specabsint/internal/layout"
)

// fourLine builds a layout with scalar symbols over a 4-line
// fully-associative cache, matching the paper's Fig. 5 / Fig. 12 /
// Appendix B examples.
func fourLine(t *testing.T, names ...string) (*layout.Layout, map[string]layout.BlockID) {
	t.Helper()
	bd := ir.NewBuilder("p")
	for _, n := range names {
		bd.AddSymbol(n, 4, 1, false, nil)
	}
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	bd.Ret(ir.ConstVal(0))
	prog, err := bd.Finish(entry)
	if err != nil {
		t.Fatal(err)
	}
	l, err := layout.New(prog, layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 4})
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string]layout.BlockID{}
	for _, s := range prog.Symbols {
		b, _ := l.BlockRange(s.ID)
		blocks[s.Name] = b
	}
	return l, blocks
}

// exact builds an exact access to a named block.
func exact(b layout.BlockID) Access { return Access{First: b, Count: 1} }

// mAge returns the must age, or 0 when not must-cached.
func mAge(s *State, b layout.BlockID) int {
	a, _ := s.Must(b)
	return a
}

// shAge returns the shadow age, or 0 when not may-cached.
func shAge(s *State, b layout.BlockID) int {
	a, _ := s.Shadow(b)
	return a
}

func TestTransferFig4LeftMiss(t *testing.T) {
	// Fig. 4 left: v not cached; u1..u4 at ages 1..4. Accessing v loads it
	// at age 1 and evicts u4.
	l, blk := fourLine(t, "v", "u1", "u2", "u3", "u4")
	d := &Domain{L: l, Refined: false}
	s := NewState(d.L.NumBlocks)
	for i, n := range []string{"u1", "u2", "u3", "u4"} {
		s.SetMust(blk[n], i+1)
		s.SetShadow(blk[n], i+1)
	}
	d.Transfer(s, exact(blk["v"]))
	if mAge(s, blk["v"]) != 1 {
		t.Errorf("v age = %d, want 1", mAge(s, blk["v"]))
	}
	for i, n := range []string{"u1", "u2", "u3"} {
		if mAge(s, blk[n]) != i+2 {
			t.Errorf("%s age = %d, want %d", n, mAge(s, blk[n]), i+2)
		}
	}
	if _, cached := s.Must(blk["u4"]); cached {
		t.Error("u4 should be evicted")
	}
	if s.MayBeCached(blk["u4"]) {
		t.Error("u4 should not even be may-cached")
	}
}

func TestTransferFig4RightHit(t *testing.T) {
	// Fig. 4 right: v at age 2; u younger (1), w1/w2 older (3,4). Accessing
	// v moves it to 1; u ages to 2; w1/w2 keep their ages.
	l, blk := fourLine(t, "u", "v", "w1", "w2")
	d := &Domain{L: l, Refined: false}
	s := NewState(d.L.NumBlocks)
	ages := map[string]int{"u": 1, "v": 2, "w1": 3, "w2": 4}
	for n, a := range ages {
		s.SetMust(blk[n], a)
		s.SetShadow(blk[n], a)
	}
	d.Transfer(s, exact(blk["v"]))
	want := map[string]int{"v": 1, "u": 2, "w1": 3, "w2": 4}
	for n, a := range want {
		if mAge(s, blk[n]) != a {
			t.Errorf("%s age = %d, want %d", n, mAge(s, blk[n]), a)
		}
	}
}

func TestJoinFig5(t *testing.T) {
	// Fig. 5: S has x:1,y:2,z:3,k:4; S' has t:1,z:2,x:3,k:4.
	// Join keeps x:3, z:3, k:4; y and t drop out of the must state.
	l, blk := fourLine(t, "x", "y", "z", "k", "t")
	d := &Domain{L: l, Refined: true}
	s1 := NewState(d.L.NumBlocks)
	for n, a := range map[string]int{"x": 1, "y": 2, "z": 3, "k": 4} {
		s1.SetMust(blk[n], a)
		s1.SetShadow(blk[n], a)
	}
	s2 := NewState(d.L.NumBlocks)
	for n, a := range map[string]int{"t": 1, "z": 2, "x": 3, "k": 4} {
		s2.SetMust(blk[n], a)
		s2.SetShadow(blk[n], a)
	}
	j := d.Join(s1, s2)
	wantMust := map[string]int{"x": 3, "z": 3, "k": 4}
	if j.MustCount() != len(wantMust) {
		t.Errorf("join must size = %d, want %d (%v)", j.MustCount(), len(wantMust), j)
	}
	for n, a := range wantMust {
		if mAge(j, blk[n]) != a {
			t.Errorf("must %s = %d, want %d", n, mAge(j, blk[n]), a)
		}
	}
	// Example B.3: shadow ages are pointwise minima over the union.
	wantShadow := map[string]int{"x": 1, "t": 1, "y": 2, "z": 2, "k": 4}
	for n, a := range wantShadow {
		if shAge(j, blk[n]) != a {
			t.Errorf("shadow %s = %d, want %d", n, shAge(j, blk[n]), a)
		}
	}
}

// appendixBState reproduces the pre-state of Example B.2:
// must [{},{},{x,z},{k}], shadow [{∃x,∃t},{∃y,∃z},{},{∃k}].
func appendixBState(d *Domain, blk map[string]layout.BlockID) *State {
	s := NewState(d.L.NumBlocks)
	s.SetMust(blk["x"], 3)
	s.SetMust(blk["z"], 3)
	s.SetMust(blk["k"], 4)
	for n, a := range map[string]int{"x": 1, "t": 1, "y": 2, "z": 2, "k": 4} {
		s.SetShadow(blk[n], a)
	}
	return s
}

func TestAppendixBRefX(t *testing.T) {
	l, blk := fourLine(t, "x", "y", "z", "k", "t")
	d := &Domain{L: l, Refined: true}
	s := appendixBState(d, blk)
	d.Transfer(s, exact(blk["x"]))
	// Expected: shadow [{∃x},{∃t,∃y,∃z},{},{∃k}], must [{x},{},{z},{k}].
	wantShadow := map[string]int{"x": 1, "t": 2, "y": 2, "z": 2, "k": 4}
	for n, a := range wantShadow {
		if shAge(s, blk[n]) != a {
			t.Errorf("shadow %s = %d, want %d", n, shAge(s, blk[n]), a)
		}
	}
	wantMust := map[string]int{"x": 1, "z": 3, "k": 4}
	if s.MustCount() != len(wantMust) {
		t.Errorf("must size = %d, want %d", s.MustCount(), len(wantMust))
	}
	for n, a := range wantMust {
		if mAge(s, blk[n]) != a {
			t.Errorf("must %s = %d, want %d", n, mAge(s, blk[n]), a)
		}
	}
}

func TestAppendixBRefY(t *testing.T) {
	// Fig. 12: accessing y on the merged state ages x and z by one and
	// evicts k (NYoung rule keeps them from aging *less* than that).
	l, blk := fourLine(t, "x", "y", "z", "k", "t")
	d := &Domain{L: l, Refined: true}
	s := appendixBState(d, blk)
	d.Transfer(s, exact(blk["y"]))
	wantShadow := map[string]int{"y": 1, "x": 2, "t": 2, "z": 3, "k": 4}
	for n, a := range wantShadow {
		if shAge(s, blk[n]) != a {
			t.Errorf("shadow %s = %d, want %d", n, shAge(s, blk[n]), a)
		}
	}
	wantMust := map[string]int{"y": 1, "x": 4, "z": 4}
	if s.MustCount() != len(wantMust) {
		t.Errorf("must count = %d, want %d", s.MustCount(), len(wantMust))
	}
	for n, a := range wantMust {
		if mAge(s, blk[n]) != a {
			t.Errorf("must %s = %d, want %d", n, mAge(s, blk[n]), a)
		}
	}
	if _, cached := s.Must(blk["k"]); cached {
		t.Error("k should be evicted from the must state")
	}
}

func TestAppendixBRefK(t *testing.T) {
	l, blk := fourLine(t, "x", "y", "z", "k", "t")
	d := &Domain{L: l, Refined: true}
	s := appendixBState(d, blk)
	d.Transfer(s, exact(blk["k"]))
	// Expected shadow: [{∃k},{∃x,∃t},{∃y,∃z},{}].
	wantShadow := map[string]int{"k": 1, "x": 2, "t": 2, "y": 3, "z": 3}
	for n, a := range wantShadow {
		if shAge(s, blk[n]) != a {
			t.Errorf("shadow %s = %d, want %d", n, shAge(s, blk[n]), a)
		}
	}
	// Must: k becomes 1; x and z have NYoung >= 3, so they age to 4.
	wantMust := map[string]int{"k": 1, "x": 4, "z": 4}
	for n, a := range wantMust {
		if mAge(s, blk[n]) != a {
			t.Errorf("must %s = %d, want %d", n, mAge(s, blk[n]), a)
		}
	}
}

// TestAppendixCLoop replays the Appendix C table: the loop of Fig. 11/13
// with a 4-line cache. With the refined join, `a` survives at age 3 at the
// fixed point (S10); with the original rule it is evicted on round 4.
func TestAppendixCLoop(t *testing.T) {
	l, blk := fourLine(t, "a", "b", "c")
	a, b, c := blk["a"], blk["b"], blk["c"]

	run := func(refined bool, rounds int) *State {
		d := &Domain{L: l, Refined: refined}
		s := NewState(d.L.NumBlocks)
		d.Transfer(s, exact(a)) // S1 = ref a
		for i := 0; i < rounds; i++ {
			sb := s.Clone()
			d.Transfer(sb, exact(b))
			sc := s.Clone()
			d.Transfer(sc, exact(c))
			s = d.Join(sb, sc)
		}
		return s
	}

	// Refined: fixed point with a kept at age 3 (S10 in the appendix).
	refined := run(true, 3)
	if got := mAge(refined, a); got != 3 {
		t.Errorf("refined: a at age %d, want 3 (kept in cache)", got)
	}
	// Original: S10 has a at age 4 and the next round evicts it.
	if got := mAge(run(false, 3), a); got != 4 {
		t.Errorf("original after 3 rounds: a at age %d, want 4", got)
	}
	if _, cached := run(false, 4).Must(a); cached {
		t.Error("original after 4 rounds: a should be evicted")
	}
	// The refined analysis never evicts a, no matter how long it runs.
	if got := mAge(run(true, 10), a); got != 3 {
		t.Errorf("refined after 10 rounds: a at age %d, want 3", got)
	}
}

func TestAppendixCFixedPoint(t *testing.T) {
	// With shadow variables the state reaches a fixed point after three
	// iterations.
	l, blk := fourLine(t, "a", "b", "c")
	a, b, c := blk["a"], blk["b"], blk["c"]
	d := &Domain{L: l, Refined: true}
	s := NewState(d.L.NumBlocks)
	d.Transfer(s, exact(a))
	var prev *State
	for i := 0; i < 10; i++ {
		sb := s.Clone()
		d.Transfer(sb, exact(b))
		sc := s.Clone()
		d.Transfer(sc, exact(c))
		next := d.Join(sb, sc)
		if prev != nil && next.Equal(prev) {
			if i > 3 {
				t.Errorf("fixed point only after %d iterations", i)
			}
			return
		}
		prev = next
		s = next
	}
	t.Fatal("no fixed point within 10 iterations")
}

func TestRangeAccessAgesEverything(t *testing.T) {
	l, blk := fourLine(t, "x", "y", "arr")
	d := &Domain{L: l, Refined: false}
	s := NewState(d.L.NumBlocks)
	s.SetMust(blk["x"], 1)
	s.SetShadow(blk["x"], 1)
	s.SetMust(blk["y"], 2)
	s.SetShadow(blk["y"], 2)
	// Unknown access somewhere within a two-block range (arr's block plus
	// the next one; the layout has no symbol there but the id is valid for
	// the transfer).
	d.Transfer(s, Access{First: blk["x"], Count: 2})
	if mAge(s, blk["x"]) != 2 || mAge(s, blk["y"]) != 3 {
		t.Errorf("x=%d y=%d, want 2,3", mAge(s, blk["x"]), mAge(s, blk["y"]))
	}
	// No candidate becomes must-cached beyond its previous bound...
	if _, ok := s.Must(blk["arr"]); ok {
		t.Error("unknown access must not create must-hits")
	}
	// But all candidates may be cached now.
	if shAge(s, blk["x"]) != 1 || shAge(s, blk["y"]) != 1 {
		t.Error("candidates should be may-cached at age 1")
	}
}

func TestRangeAccessRepeatedEvicts(t *testing.T) {
	// Four unknown accesses to a 4-block array in a 4-way cache evict a
	// previously cached scalar — the paper's Table 1 loop behaviour.
	bd := ir.NewBuilder("p")
	bd.AddSymbol("s", 4, 1, false, nil)
	bd.AddSymbol("arr", 4, 64, false, nil) // 256B = 4 blocks
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	bd.Ret(ir.ConstVal(0))
	prog, err := bd.Finish(entry)
	if err != nil {
		t.Fatal(err)
	}
	l, err := layout.New(prog, layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 4})
	if err != nil {
		t.Fatal(err)
	}
	sBlk, _ := l.BlockRange(prog.SymbolByName("s").ID)
	aBlk, n := l.BlockRange(prog.SymbolByName("arr").ID)
	if n != 4 {
		t.Fatalf("arr spans %d blocks, want 4", n)
	}

	d := &Domain{L: l, Refined: false}
	st := NewState(d.L.NumBlocks)
	d.Transfer(st, exact(sBlk))
	for i := 0; i < 3; i++ {
		d.Transfer(st, Access{First: aBlk, Count: 4})
		if !st.MustHit(sBlk, 4) {
			t.Fatalf("s evicted after %d unknown accesses, want survival through 3", i+1)
		}
	}
	d.Transfer(st, Access{First: aBlk, Count: 4})
	if st.MustHit(sBlk, 4) {
		t.Error("s should not be guaranteed cached after 4 unknown accesses")
	}
}

func TestClassify(t *testing.T) {
	l, blk := fourLine(t, "x", "y")
	d := NewDomain(l)
	s := NewState(d.L.NumBlocks)
	s.SetMust(blk["x"], 2)
	s.SetShadow(blk["x"], 1)
	if got := d.Classify(s, exact(blk["x"])); got != AlwaysHit {
		t.Errorf("x: %v, want always-hit", got)
	}
	if got := d.Classify(s, exact(blk["y"])); got != AlwaysMiss {
		t.Errorf("y: %v, want always-miss (not even may-cached)", got)
	}
	s.SetShadow(blk["y"], 3) // may be cached, not guaranteed
	if got := d.Classify(s, exact(blk["y"])); got != Unknown {
		t.Errorf("y: %v, want unknown", got)
	}
}

func TestBottomJoinIdentity(t *testing.T) {
	l, blk := fourLine(t, "x")
	d := NewDomain(l)
	s := NewState(d.L.NumBlocks)
	s.SetMust(blk["x"], 1)
	s.SetShadow(blk["x"], 1)
	j := d.Join(Bottom(), s)
	if !j.Equal(s) {
		t.Error("join(bottom, s) != s")
	}
	j = d.Join(s, Bottom())
	if !j.Equal(s) {
		t.Error("join(s, bottom) != s")
	}
	if !d.Leq(Bottom(), s) {
		t.Error("bottom should be ⊑ everything")
	}
	if d.Leq(s, Bottom()) {
		t.Error("s should not be ⊑ bottom")
	}
}

func TestJoinIntoMatchesJoin(t *testing.T) {
	l, blk := fourLine(t, "x", "y", "z")
	d := NewDomain(l)
	a := NewState(d.L.NumBlocks)
	a.SetMust(blk["x"], 1)
	a.SetMust(blk["y"], 2)
	a.SetShadow(blk["x"], 1)
	a.SetShadow(blk["y"], 2)
	b := NewState(d.L.NumBlocks)
	b.SetMust(blk["x"], 2)
	b.SetMust(blk["z"], 1)
	b.SetShadow(blk["x"], 2)
	b.SetShadow(blk["z"], 1)
	j := d.Join(a, b)
	into := a.Clone()
	if !d.JoinInto(into, b) {
		t.Error("JoinInto should report a change")
	}
	if !into.Equal(j) {
		t.Errorf("JoinInto %v != Join %v", into, j)
	}
	if d.JoinInto(into, b) {
		t.Error("second JoinInto should be a no-op")
	}
}

func TestLeqOrder(t *testing.T) {
	l, blk := fourLine(t, "x", "y")
	d := NewDomain(l)
	strong := NewState(d.L.NumBlocks)
	strong.SetMust(blk["x"], 1)
	strong.SetShadow(blk["x"], 2)
	weak := NewState(d.L.NumBlocks)
	weak.SetMust(blk["x"], 3) // older must age = weaker guarantee
	weak.SetShadow(blk["x"], 1)
	weak.SetShadow(blk["y"], 1)
	if !d.Leq(strong, weak) {
		t.Error("strong ⊑ weak expected")
	}
	if d.Leq(weak, strong) {
		t.Error("weak ⊑ strong must not hold")
	}
	if !d.Leq(strong, strong) {
		t.Error("⊑ must be reflexive")
	}
}

func TestJoinIsLub(t *testing.T) {
	l, blk := fourLine(t, "x", "y", "z")
	d := NewDomain(l)
	a := NewState(d.L.NumBlocks)
	a.SetMust(blk["x"], 1)
	a.SetMust(blk["y"], 2)
	a.SetShadow(blk["x"], 1)
	a.SetShadow(blk["y"], 2)
	b := NewState(d.L.NumBlocks)
	b.SetMust(blk["x"], 2)
	b.SetMust(blk["z"], 1)
	b.SetShadow(blk["x"], 2)
	b.SetShadow(blk["z"], 1)
	j := d.Join(a, b)
	if !d.Leq(a, j) || !d.Leq(b, j) {
		t.Error("join must be an upper bound of both inputs")
	}
	if !d.Leq(j, j) {
		t.Error("join not reflexively ordered")
	}
}

func TestWidenOverApproximatesJoin(t *testing.T) {
	l, blk := fourLine(t, "x", "y")
	d := NewDomain(l)
	prev := NewState(d.L.NumBlocks)
	prev.SetMust(blk["x"], 1)
	prev.SetMust(blk["y"], 2)
	prev.SetShadow(blk["x"], 1)
	prev.SetShadow(blk["y"], 2)
	next := prev.Clone()
	next.SetMust(blk["x"], 2) // grew
	next.SetShadow(blk["y"], 1)
	w := d.Widen(prev, next)
	if !d.Leq(next, w) {
		t.Error("widen must over-approximate next")
	}
	if _, ok := w.Must(blk["x"]); ok {
		t.Error("growing must age should jump to evicted")
	}
	if mAge(w, blk["y"]) != 2 {
		t.Error("stable must age should be kept")
	}
}

func TestTransferOnBottomIsNoop(t *testing.T) {
	l, blk := fourLine(t, "x")
	d := NewDomain(l)
	s := Bottom()
	d.Transfer(s, exact(blk["x"]))
	if !s.IsBottom {
		t.Error("transfer must preserve bottom")
	}
}

func TestStateCloneIndependence(t *testing.T) {
	l, blk := fourLine(t, "x", "y")
	d := NewDomain(l)
	s := NewState(d.L.NumBlocks)
	d.Transfer(s, exact(blk["x"]))
	c := s.Clone()
	d.Transfer(c, exact(blk["y"]))
	if _, ok := s.Must(blk["y"]); ok {
		t.Error("mutating the clone leaked into the original")
	}
}

func TestStateFormat(t *testing.T) {
	l, blk := fourLine(t, "x", "y")
	d := NewDomain(l)
	s := NewState(d.L.NumBlocks)
	d.Transfer(s, exact(blk["x"]))
	d.Transfer(s, exact(blk["y"]))
	got := s.Format(l)
	if got != "[{y} {x}]" {
		t.Errorf("format = %q, want [{y} {x}]", got)
	}
	if Bottom().Format(l) != "⊥" {
		t.Error("bottom format")
	}
}

func TestMustBlocksOrdering(t *testing.T) {
	l, blk := fourLine(t, "x", "y", "z")
	d := NewDomain(l)
	s := NewState(d.L.NumBlocks)
	d.Transfer(s, exact(blk["z"]))
	d.Transfer(s, exact(blk["x"]))
	d.Transfer(s, exact(blk["y"]))
	ids := s.MustBlocks()
	want := []layout.BlockID{blk["y"], blk["x"], blk["z"]}
	if len(ids) != 3 {
		t.Fatalf("got %d blocks", len(ids))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("MustBlocks[%d] = %d, want %d", i, ids[i], want[i])
		}
	}
}

func TestSetAssociativeIsolation(t *testing.T) {
	// Two blocks in different sets must not age each other.
	bd := ir.NewBuilder("p")
	bd.AddSymbol("a", 64, 1, false, nil) // block 0 -> set 0
	bd.AddSymbol("b", 64, 1, false, nil) // block 1 -> set 1
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	bd.Ret(ir.ConstVal(0))
	prog, err := bd.Finish(entry)
	if err != nil {
		t.Fatal(err)
	}
	l, err := layout.New(prog, layout.CacheConfig{LineSize: 64, NumSets: 2, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDomain(l)
	aBlk, _ := l.BlockRange(prog.SymbolByName("a").ID)
	bBlk, _ := l.BlockRange(prog.SymbolByName("b").ID)
	if l.SetOf(aBlk) == l.SetOf(bBlk) {
		t.Fatal("test setup: blocks should be in different sets")
	}
	s := NewState(d.L.NumBlocks)
	d.Transfer(s, exact(aBlk))
	d.Transfer(s, exact(bBlk))
	if mAge(s, aBlk) != 1 {
		t.Errorf("a aged to %d by an access in another set", mAge(s, aBlk))
	}
}
