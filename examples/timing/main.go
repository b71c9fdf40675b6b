// Timing replays the paper's motivating example (Fig. 2 and Fig. 3):
// a program whose worst-case execution time is under-estimated by the
// classic cache analysis because mis-speculation loads both branch arms.
//
//	go run ./examples/timing
package main

import (
	"fmt"
	"log"

	"specabsint/internal/bench"
	"specabsint/internal/core"
	"specabsint/internal/experiments"
	"specabsint/internal/machine"
	"specabsint/internal/runner"
	"specabsint/internal/wcet"
)

func main() {
	setup := experiments.PaperSetup()

	fmt.Println("Figure 2 program: 510 preloaded ph lines, a branch on uncached p,")
	fmt.Println("then the load ph[k] the analysis must judge (512-line cache).")
	fmt.Println()

	// --- Abstract analysis, both modes ------------------------------------
	prog, _, err := runner.Compile(bench.Fig2Program(-1), setup.MaxUnroll, false)
	if err != nil {
		log.Fatal(err)
	}
	for _, spec := range []bool{false, true} {
		opts := core.DefaultOptions()
		opts.Speculative = spec
		res, err := core.Analyze(prog, opts)
		if err != nil {
			log.Fatal(err)
		}
		est := wcet.New(res, wcet.DefaultCosts())
		mode := "classic     "
		if spec {
			mode = "speculative "
		}
		fmt.Printf("%s analysis: %d/%d accesses may miss, WCET bound %d cycles (+%d wrong-path)\n",
			mode, est.Misses, est.Accesses, est.WorstCaseCycles, est.SpecExtraCycles)
	}

	// --- Concrete replay of Fig. 3 ----------------------------------------
	fmt.Println()
	fmt.Println("Concrete traces (secret k = 0):")
	conc, _, err := runner.Compile(bench.Fig2Program(0), setup.MaxUnroll, false)
	if err != nil {
		log.Fatal(err)
	}

	cfg := machine.DefaultConfig()
	cfg.DepthMiss, cfg.DepthHit = 0, 0
	stats, err := machine.RunProgram(conc, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  in-order CPU:      %3d misses + %d hit   (%d cycles)\n",
		stats.Misses, stats.Hits, stats.Cycles)

	cfg = machine.DefaultConfig()
	cfg.ForceMispredict = true
	cfg.DepthMiss, cfg.DepthHit = 3, 3
	stats, err = machine.RunProgram(conc, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  mis-speculating:   %3d misses + %d hits  (%d cycles), plus %d wrong-path miss\n",
		stats.Misses, stats.Hits, stats.Cycles, stats.SpecMisses)

	fmt.Println()
	fmt.Println("The wrong-path load of the other branch arm evicts the oldest ph line,")
	fmt.Println("so ph[k] — a certified hit under the classic analysis — misses: the")
	fmt.Println("classic WCET bound is invalid on speculative hardware (Fig. 3).")
}
