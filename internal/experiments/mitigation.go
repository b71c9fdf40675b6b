package experiments

import (
	"context"
	"fmt"

	"specabsint/internal/bench"
	"specabsint/internal/mitigate"
)

// MitigationKernelRow is the fence synthesizer's outcome on one
// leak-reporting kernel.
type MitigationKernelRow struct {
	Kernel string `json:"kernel"`
	// BaselineLeaks / BaselineGadgets count the unfenced kernel's reported
	// cache timing leaks and Spectre transmission gadgets.
	BaselineLeaks   int `json:"baseline_leaks"`
	BaselineGadgets int `json:"baseline_gadgets"`
	// ResidualLeaks counts what survives the fence set; nonzero means the
	// remaining leaks are architectural (the classic analysis reports them
	// too) and no fence can remove them.
	ResidualLeaks int `json:"residual_leaks"`
	Fences        int `json:"fences"`
	// Analyses counts the re-analysis runs the greedy search spent.
	Analyses int `json:"analyses"`
	// BaselineWCET / MitigatedWCET are the architectural worst-case cycle
	// bounds; omitted when the kernel's CFG is cyclic (WCETBounded false).
	BaselineWCET  int64 `json:"baseline_wcet,omitempty"`
	MitigatedWCET int64 `json:"mitigated_wcet,omitempty"`
	WCETBounded   bool  `json:"wcet_bounded"`
	// OverheadPercent is the WCET cost of the repair; negative overhead is
	// real (killing speculation also removes wrong-path misses).
	OverheadPercent float64 `json:"overhead_percent"`
}

// MitigationSummary is the fence synthesizer's outcome over the corpus.
type MitigationSummary struct {
	// Kernels holds one row per corpus kernel (plus the paper's Fig. 2
	// example) on which the analysis reports at least one leak or gadget.
	Kernels []MitigationKernelRow `json:"kernels"`
	// FullyRepaired counts rows whose residual is zero.
	FullyRepaired int `json:"fully_repaired"`
}

// mitigationSummary sweeps the fence synthesizer over the corpus plus the
// paper's Fig. 2 example and records one row per kernel the analysis flags.
// SideChannel kernels get the standard 4 KiB client wrapper, matching the
// CLI tools; clean kernels produce no row (the synthesizer is a no-op on
// them and their WCET is unchanged by construction).
func mitigationSummary() (*MitigationSummary, error) {
	type entry struct {
		name string
		code string
	}
	entries := []entry{{"fig2", bench.Fig2Program(-1)}}
	for _, b := range bench.All() {
		code := b.Code
		if b.Kind == bench.SideChannel {
			code = bench.WithClient(b, 4096)
		}
		entries = append(entries, entry{b.Name, code})
	}
	sum := &MitigationSummary{}
	for _, e := range entries {
		prog, err := bench.Compile(e.code, 0)
		if err != nil {
			return nil, fmt.Errorf("mitigation %s: %w", e.name, err)
		}
		res, err := mitigate.Synthesize(context.Background(), prog, mitigate.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("mitigation %s: %w", e.name, err)
		}
		if res.BaselineLeaks+res.BaselineGadgets == 0 {
			continue
		}
		row := MitigationKernelRow{
			Kernel:          e.name,
			BaselineLeaks:   res.BaselineLeaks,
			BaselineGadgets: res.BaselineGadgets,
			ResidualLeaks:   res.ResidualLeaks,
			Fences:          len(res.Fences),
			Analyses:        res.Analyses,
			WCETBounded:     res.WCETBounded,
			OverheadPercent: res.OverheadPercent,
		}
		if res.WCETBounded {
			row.BaselineWCET = res.BaselineWCET
			row.MitigatedWCET = res.MitigatedWCET
		}
		if row.ResidualLeaks == 0 {
			sum.FullyRepaired++
		}
		sum.Kernels = append(sum.Kernels, row)
	}
	return sum, nil
}
