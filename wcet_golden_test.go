package specabsint

import (
	"fmt"
	"strings"
	"testing"

	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/runner"
	"specabsint/internal/wcet"
)

// TestGoldenBoundedWCET pins the loop-bounded WCET of the whole paper corpus
// in testdata/golden/wcet_bounded.txt. Each program is lowered with its loops
// kept (MaxUnroll 1) and the pass pipeline on, and analyzed under
// core.DefaultOptions. Its line holds New's estimate, which is -1 for a cyclic
// CFG, and three NewWithBounds estimates: every loop bounded by 8, every loop
// bounded by its own per-header bound, and bound 8 with first-miss accounting
// from the persistence analysis.
func TestGoldenBoundedWCET(t *testing.T) {
	costs := wcet.DefaultCosts()
	var sb strings.Builder
	for _, cp := range paperCorpus() {
		prog, _, err := runner.Compile(cp.src, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", cp.name, err)
		}
		res, err := core.Analyze(prog, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", cp.name, err)
		}
		persist, err := core.AnalyzePersistence(prog, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: persistence: %v", cp.name, err)
		}
		// Every block gets an entry; only loop heads are read.
		perHeader := map[ir.BlockID]int64{}
		for _, b := range prog.Blocks {
			perHeader[b.ID] = 2 + int64(b.ID)%5
		}
		fmt.Fprintf(&sb, "%s components=%d new=%d bound8=%d perheader=%d persist8=%d\n",
			cp.name, res.Stats.WTOComponents,
			wcet.New(res, costs).WorstCaseCycles,
			wcet.NewWithBounds(res, costs, wcet.BoundOptions{DefaultLoopBound: 8}).WorstCaseCycles,
			wcet.NewWithBounds(res, costs, wcet.BoundOptions{LoopBounds: perHeader}).WorstCaseCycles,
			wcet.NewWithBounds(res, costs, wcet.BoundOptions{DefaultLoopBound: 8, Persistence: persist}).WorstCaseCycles)
	}
	checkGolden(t, "wcet_bounded.txt", sb.String())
}
