package core

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/cache"
	"specabsint/internal/gen"
)

// refClassify is the walking classify that the kept verdicts replaced: it
// walks every live normal and SS flow, those at their vn_stop included,
// through its block once more, classifying each access before transferring
// it, and takes the lanes' verdicts from their slots.
func refClassify(e *engine) (access map[int]AccessInfo, spec map[int]cache.Classification) {
	access, spec = map[int]AccessInfo{}, map[int]cache.Classification{}
	st := e.pool.Get()
	defer e.pool.Put(st)
	for _, b := range e.prog.Blocks {
		bs := &e.steps.blocks[b.ID]
		if len(bs.steps) == 0 {
			continue
		}
		var flows []*cache.State
		if !e.S[b.ID].IsBottom {
			flows = append(flows, e.S[b.ID])
		}
		for _, f := range e.SS[b.ID] {
			if !f.IsBottom {
				flows = append(flows, f)
			}
		}
		for fi, f := range flows {
			st.CopyFrom(f)
			for i := range bs.steps {
				if i > 0 && !e.repeats(bs, i-1) {
					e.dom.Transfer(st, bs.steps[i-1].acc)
				}
				acc := bs.steps[i].acc
				in := bs.steps[i].in
				cls := e.dom.Classify(st, acc)
				if fi == 0 {
					access[in.ID] = AccessInfo{Instr: in, Block: b.ID, Acc: acc, Class: cls}
				} else if prev := access[in.ID]; prev.Class != cls {
					prev.Class = cache.Unknown
					access[in.ID] = prev
				}
			}
		}
		for _, lv := range e.Lane[b.ID] {
			if lv.st.IsBottom {
				continue
			}
			for i, cls := range lv.verdicts {
				in := bs.steps[i].in
				if prev, seen := spec[in.ID]; !seen {
					spec[in.ID] = cls
				} else if prev != cls {
					spec[in.ID] = cache.Unknown
				}
			}
		}
	}
	return access, spec
}

// TestClassifyMatchesWalk: classify reads the verdicts each flow kept from
// its last walk and skips SS flows at their vn_stop; walking every final
// flow once more must give the same Access and SpecAccess maps. It checks
// every corpus program under the three analysis models and the three merge
// strategies, and the 120 gen.Sized(2) programs TestFixpointIsStable
// checks, lowered with MaxUnroll 1 so that their loops survive, under every
// model and strategy. Under -race or -short it checks fig2, g72 and hash
// under the data-cache model, and 20 generated programs.
func TestClassifyMatchesWalk(t *testing.T) {
	cheap := raceDetectorOn || testing.Short()
	cheapSet := map[string]bool{"fig2": true, "g72": true, "hash": true}
	names := []string{"fig2"}
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	check := func(label string, e *engine) {
		res := e.result()
		access, spec := refClassify(e)
		if !maps.Equal(res.Access, access) {
			for id, want := range access {
				if got, ok := res.Access[id]; !ok || got != want {
					t.Fatalf("%s: instr %d classified %+v, walking the final flows gives %+v", label, id, got, want)
				}
			}
			t.Fatalf("%s: %d accesses classified, walking the final flows classifies %d", label, len(res.Access), len(access))
		}
		if !maps.Equal(res.SpecAccess, spec) {
			t.Fatalf("%s: wrong-path verdicts %v, walking the final flows gives %v", label, res.SpecAccess, spec)
		}
	}
	for _, name := range names {
		if cheap && !cheapSet[name] {
			continue
		}
		src := corpusSource(t, name)
		for _, md := range laneModels {
			if cheap && md.m != dataCache {
				continue
			}
			prog := compileForModel(t, name, src, md.m)
			for _, s := range laneStrategies {
				label := fmt.Sprintf("%s/%s/%v", name, md.name, s)
				opts := DefaultOptions()
				opts.Strategy = s
				check(label, converge(t, label, prog, opts, md.m))
			}
		}
	}
	programs := 120
	if cheap {
		programs = 20
	}
	for seed := 1; seed <= programs; seed++ {
		src := gen.Program(rand.New(rand.NewSource(int64(seed))), gen.Sized(2))
		for _, md := range laneModels {
			prog := compileRolled(t, src, md.m)
			for _, s := range laneStrategies {
				label := fmt.Sprintf("gen%d/%s/%v", seed, md.name, s)
				opts := DefaultOptions()
				opts.Strategy = s
				check(label, converge(t, label, prog, opts, md.m))
			}
		}
	}
}
