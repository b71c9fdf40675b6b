package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"specabsint/internal/ir"
	"specabsint/internal/layout"
)

// benchLayout builds a layout over nBlocks line-sized scalars, mirroring
// propLayout but sized for benchmarking.
func benchLayout(b *testing.B, nBlocks, numSets, assoc int) *layout.Layout {
	b.Helper()
	bd := ir.NewBuilder("bench")
	for i := 0; i < nBlocks; i++ {
		bd.AddSymbol(fmt.Sprintf("s%d", i), 64, 1, false, nil)
	}
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	bd.Ret(ir.ConstVal(0))
	prog := bd.Finish(entry)
	l, err := layout.New(prog, layout.CacheConfig{LineSize: 64, NumSets: numSets, Assoc: assoc})
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// warmState drives a random access sequence through a fresh state so the
// benchmarks operate on realistic mid-fixpoint contents.
func warmState(d *Domain, nBlocks int, seed int64) *State {
	rng := rand.New(rand.NewSource(seed))
	st := NewState(d.L.NumBlocks)
	for i := 0; i < 4*nBlocks; i++ {
		d.Transfer(st, Access{First: layout.BlockID(rng.Intn(nBlocks)), Count: 1})
	}
	return st
}

// BenchmarkTransfer measures one exact-access transfer on the paper's
// fully-associative geometry and on a 64-set/8-way one. The universe-64
// shape has the paper corpus's proportions: far fewer blocks than ways.
// The blocks are accessed cyclically, so every access finds its block the
// oldest in the state and every younger block a candidate to age: the
// NYoung histogram is needed at full height. BenchmarkExactAccess measures
// the other cases.
func BenchmarkTransfer(b *testing.B) {
	shapes := []struct {
		name           string
		blocks, sets   int
		assoc, refined int // refined: 1 = NYoung rule on
	}{
		{"fullyassoc-512", 512, 1, 512, 1},
		{"fullyassoc-512-universe-64", 64, 1, 512, 1},
		{"64set-8way", 512, 64, 8, 1},
		{"fullyassoc-classic", 512, 1, 512, 0},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			l := benchLayout(b, sh.blocks, sh.sets, sh.assoc)
			d := &Domain{L: l, Refined: sh.refined == 1}
			st := warmState(d, sh.blocks, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Transfer(st, Access{First: layout.BlockID(i % sh.blocks), Count: 1})
			}
		})
	}
}

// nestedState is a state at the shape of the repository benchmark's largest
// nested-loops program (a 32×32 nest): 1,139 blocks at the paper's 512
// ways, with about as many blocks must-cached (330) and may-cached (510) as
// its exact accesses meet on average. It joins two paths that each cache
// 420 blocks, [0, 420) and [90, 510), every block accessed once and then
// 2×420 random ones; the join keeps the 330 they share must-cached and the
// 510 either caches may-cached. An access to block 200 follows, so that
// some block has must age 1.
func nestedState(d *Domain) *State {
	warm := func(lo, hi int, seed int64) *State {
		rng := rand.New(rand.NewSource(seed))
		st := NewState(d.L.NumBlocks)
		for _, i := range rng.Perm(hi - lo) {
			d.Transfer(st, Access{First: layout.BlockID(lo + i), Count: 1})
		}
		for i := 0; i < 2*(hi-lo); i++ {
			d.Transfer(st, Access{First: layout.BlockID(lo + rng.Intn(hi-lo)), Count: 1})
		}
		return st
	}
	st := d.Join(warm(0, 420, 1), warm(90, 510, 2))
	d.Transfer(st, Access{First: 200, Count: 1})
	return st
}

// nestedBlocks is the universe of nestedState.
const nestedBlocks = 1139

// BenchmarkExactAccess measures one exact access by the must age m the
// accessed block has: youngest (m = 1: nothing can age, so there is
// neither a NYoung histogram nor a must pass), middle (the median m of the
// cached blocks: only younger blocks can age, so only shadow ages below m
// are counted) and uncached (m = 0: every cached block can age). It runs on
// adpcm's universe of 174 blocks at the paper's 512 ways and at 64 sets ×
// 8 ways, warmed over all but the last 14 blocks, which stay uncached, and
// on nestedState. The 512-way shapes run the word kernels and the 64-set
// one the strided loops. Each iteration copies the state back before the
// access.
func BenchmarkExactAccess(b *testing.B) {
	const blocks, uncached = 174, 14
	for _, sh := range []struct {
		name                string
		blocks, sets, assoc int
		start               func(d *Domain) *State
	}{
		{"fullyassoc-512", blocks, 1, 512, func(d *Domain) *State { return warmState(d, blocks-uncached, 7) }},
		{"64set-8way", blocks, 64, 8, func(d *Domain) *State { return warmState(d, blocks-uncached, 7) }},
		{"nested-loops-1139", nestedBlocks, 1, 512, nestedState},
	} {
		l := benchLayout(b, sh.blocks, sh.sets, sh.assoc)
		d := NewDomain(l)
		start := sh.start(d)
		cached := start.MustBlocks() // by must age, youngest first
		for _, c := range []struct {
			name string
			v    layout.BlockID
		}{
			{"youngest", cached[0]},
			{"middle", cached[len(cached)/2]},
			{"uncached", layout.BlockID(sh.blocks - 1)},
		} {
			b.Run(sh.name+"/"+c.name, func(b *testing.B) {
				st := start.Clone()
				acc := Access{First: c.v, Count: 1}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.CopyFrom(start)
					d.Transfer(st, acc)
				}
			})
		}
	}
}

// BenchmarkJoinInto measures the in-place join on already-converged (equal)
// states — the steady-state case a fixpoint spends most of its time in —
// over 512 blocks at one set of 512 ways and at 64 sets × 8 ways, and on
// nestedState. "nested-loops-1139/covered" joins nestedState into a state
// that already covers it, the join of nestedState and the state six
// random exact accesses make of it: nothing changes, but many lanes differ.
func BenchmarkJoinInto(b *testing.B) {
	run := func(name string, d *Domain, dst, src *State) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.JoinInto(dst, src)
			}
		})
	}
	for _, sets := range []int{1, 64} {
		d := NewDomain(benchLayout(b, 512, sets, 512/sets))
		src := warmState(d, 512, 3)
		run(fmt.Sprintf("%dset", sets), d, src.Clone(), src)
	}
	d := NewDomain(benchLayout(b, nestedBlocks, 1, 512))
	src := nestedState(d)
	run("nested-loops-1139/equal", d, src.Clone(), src)
	moved := src.Clone()
	rng := rand.New(rand.NewSource(4))
	for range 6 {
		d.Transfer(moved, Access{First: layout.BlockID(rng.Intn(nestedBlocks)), Count: 1})
	}
	run("nested-loops-1139/covered", d, d.Join(src, moved), src)
}

// BenchmarkWalk measures one lane walk of 6 exact accesses, about the paper
// corpus's mean number of wrong-path accesses per rollback: the state's
// copy, each access's verdict and transfer, and the rollback. "stepwise" is
// the reference, a whole-state JoinInto per access; "walk" is Domain.Walk,
// which joins only the blocks a later access may touch. In the "repeats"
// shape each access after a walk's first repeats the one before it with
// probability 3/4, as consecutive instruction fetches of one code line do;
// Walk skips the transfer and join of such an access.
func BenchmarkWalk(b *testing.B) {
	const walkLen = 6
	shapes := []struct {
		name                string
		blocks, sets, assoc int
		repeats             bool
	}{
		{"fullyassoc-512-universe-64", 64, 1, 512, false},
		{"fullyassoc-512-universe-600", 600, 1, 512, false},
		{"64set-8way", 512, 64, 8, false},
		{"fullyassoc-512-universe-174-repeats", 174, 1, 512, true},
	}
	for _, sh := range shapes {
		l := benchLayout(b, sh.blocks, sh.sets, sh.assoc)
		d := NewDomain(l)
		start := warmState(d, sh.blocks, 5)
		rng := rand.New(rand.NewSource(6))
		accs := make([]Access, 64*walkLen)
		for i := range accs {
			if sh.repeats && i%walkLen > 0 && rng.Intn(4) > 0 {
				accs[i] = accs[i-1]
				continue
			}
			accs[i] = Access{First: layout.BlockID(rng.Intn(sh.blocks)), Count: 1}
		}
		walks := len(accs) / walkLen
		st, rollback := NewState(l.NumBlocks), NewState(l.NumBlocks)
		verdicts := make([]Classification, walkLen)
		b.Run(sh.name+"/stepwise", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				walk := accs[i%walks*walkLen:][:walkLen]
				st.CopyFrom(start)
				rollback.SetBottom()
				for j, acc := range walk {
					verdicts[j] = d.Classify(st, acc)
					d.Transfer(st, acc)
					d.JoinInto(rollback, st)
				}
			}
		})
		b.Run(sh.name+"/walk", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st.CopyFrom(start)
				d.Walk(st, rollback, accs[i%walks*walkLen:][:walkLen], verdicts)
			}
		})
	}
}
