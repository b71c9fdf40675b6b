package machine

import (
	"slices"

	"specabsint/internal/ir"
)

// HasSecretInputs reports whether prog has a secret input SecretDivergence
// sets: a secret memory scalar or a `secret reg` register.
func HasSecretInputs(prog *ir.Program) bool {
	return len(prog.SecretRegs) > 0 || slices.ContainsFunc(prog.Symbols, isSecretScalar)
}

func isSecretScalar(s *ir.Symbol) bool { return s.Secret && s.Len == 1 }

// SecretDivergence is the secret-pair replay: it runs prog twice, once with
// every secret input set to a and once with every secret input set to b,
// and returns in ascending order the watched instructions whose
// architectural hit/miss sequences differ between the two runs — the
// accesses whose timing tells the two secrets apart. The secret inputs are
// prog's secret memory scalars (set through Inputs) and its `secret reg`
// registers (set through RegInputs). cfg supplies the cache, the
// speculation depths and MaxSteps; both runs mispredict every branch and let
// wrong-path accesses read out of bounds, the worst case for a leak.
func SecretDivergence(prog *ir.Program, cfg Config, a, b int64, watch []int) ([]int, error) {
	watched := make([]bool, prog.NumInstrs)
	for _, id := range watch {
		watched[id] = true
	}
	cfg.ForceMispredict, cfg.WrongPathOOB = true, true
	trace := func(val int64) (map[int][]bool, error) {
		cfg.Inputs, cfg.RegInputs = map[string]int64{}, map[ir.Reg]int64{}
		for _, s := range prog.Symbols {
			if isSecretScalar(s) {
				cfg.Inputs[s.Name] = val
			}
		}
		for _, r := range prog.SecretRegs {
			cfg.RegInputs[r] = val
		}
		sim, err := New(prog, cfg)
		if err != nil {
			return nil, err
		}
		seq := map[int][]bool{}
		sim.OnAccess = func(r AccessRecord) {
			if !r.Speculative && watched[r.InstrID] {
				seq[r.InstrID] = append(seq[r.InstrID], r.Hit)
			}
		}
		return seq, sim.Run()
	}
	seqA, err := trace(a)
	if err != nil {
		return nil, err
	}
	seqB, err := trace(b)
	if err != nil {
		return nil, err
	}
	var diverged []int
	for _, id := range watch {
		if !slices.Equal(seqA[id], seqB[id]) {
			diverged = append(diverged, id)
		}
	}
	slices.Sort(diverged)
	return slices.Compact(diverged), nil
}
