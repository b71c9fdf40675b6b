// Wcet_dsp analyzes the paper's running example (§6.1): the quantl routine
// of the adpcm DSP benchmark (Fig. 8). It prints the abstract cache states
// of the fixpoint in the style of Tables 1 and 2 and shows how speculative
// execution lets *both* quantizer tables enter a single execution.
//
//	go run ./examples/wcet_dsp
package main

import (
	"fmt"
	"log"

	"specabsint/internal/bench"
	"specabsint/internal/cfg"
	"specabsint/internal/core"
	"specabsint/internal/layout"
	"specabsint/internal/runner"
	"specabsint/internal/wcet"
)

func main() {
	// An 8-line fully associative cache keeps the states readable and makes
	// the extra speculative occupancy visible, like the paper's discussion
	// ("if the cache is only large enough to hold the first eight
	// variables...").
	cacheCfg := layout.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 9}

	prog, _, err := runner.Compile(bench.QuantlProgram, 1, false) // keep the loop: the paper widens it
	if err != nil {
		log.Fatal(err)
	}
	// The states are listed in reverse postorder of the CFG.
	g := cfg.New(prog)

	for _, spec := range []bool{false, true} {
		opts := core.DefaultOptions()
		opts.Cache = cacheCfg
		opts.Speculative = spec
		res, err := core.Analyze(prog, opts)
		if err != nil {
			log.Fatal(err)
		}
		if spec {
			fmt.Println("=== speculative fixpoint (Table 2) ===")
		} else {
			fmt.Println("=== non-speculative fixpoint (Table 1) ===")
		}
		for _, b := range g.RPO {
			st := res.In[b]
			if st.IsBottom || st.MustCount() == 0 {
				continue
			}
			fmt.Printf("  %-10s %s\n", prog.Block(b).Label, st.Format(res.Layout))
		}
		// The quantl search loop runs at most 30 times (the decision-level
		// table has 30 entries) — the loop bound a WCET user would supply.
		persist, err := core.AnalyzePersistence(prog, opts)
		if err != nil {
			log.Fatal(err)
		}
		est := wcet.NewWithBounds(res, wcet.DefaultCosts(), wcet.BoundOptions{
			DefaultLoopBound: 30,
			Persistence:      persist,
		})
		fmt.Printf("  -> %d of %d accesses may miss; %d wrong-path misses; "+
			"WCET <= %d cycles (loop bound 30, first-miss accounting)\n\n",
			est.Misses, est.Accesses, est.SpecMisses, est.WorstCaseCycles)
	}

	fmt.Println("Under speculation the rollback path loads BOTH quant26bt_pos and")
	fmt.Println("quant26bt_neg (red rows of Table 2), so the must-cache holds one more")
	fmt.Println("table line than any real path would — and one fewer of everything else:")
	fmt.Println("the extra potential miss the classic analysis cannot see.")
}
