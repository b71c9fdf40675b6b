// Command specbench regenerates the paper's evaluation tables and figures
// (§7) on the MiniC corpus and prints them as aligned text tables. Run with
// -write to refresh EXPERIMENTS.md-style output on stdout for the repo docs.
//
// Usage:
//
//	specbench [-experiment all|fig2|table3|table4|table5|table6|table7|depth|icache|geometry]
//	          [-workers N] [-timeout d] [-cpuprofile f] [-memprofile f]
//
// An -experiment name outside that list exits 2 and lists the valid names.
//
// The corpus sweeps fan out across -workers CPUs on a shared batch engine
// (one compile per benchmark for the whole run); per-program results are
// identical to the serial path. Ctrl-C or -timeout cancels the running
// fixpoints mid-iteration.
//
// -cpuprofile / -memprofile write pprof profiles of whatever experiments ran.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"specabsint/internal/experiments"
	"specabsint/internal/runner"
)

// experiment is one table or figure specbench regenerates.
type experiment struct {
	name string
	run  func(context.Context, experiments.Setup) error
}

// experimentList holds every experiment in the order -experiment all runs
// them.
var experimentList = []experiment{
	{"fig2", fig2},
	{"table3", table3},
	{"table4", table4},
	{"table5", table5},
	{"table6", table6},
	{"table7", table7},
	{"depth", depth},
	{"icache", icache},
	{"geometry", geometry},
}

// experimentNames lists what -experiment accepts.
func experimentNames() []string {
	names := []string{"all"}
	for _, e := range experimentList {
		names = append(names, e.name)
	}
	return names
}

func main() {
	which := flag.String("experiment", "all", "which experiment to run: "+strings.Join(experimentNames(), ", "))
	workers := flag.Int("workers", 0, "concurrent analysis workers (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()
	if !slices.Contains(experimentNames(), *which) {
		fmt.Fprintf(os.Stderr, "specbench: unknown experiment %q (valid: %s)\n",
			*which, strings.Join(experimentNames(), ", "))
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "specbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()
	setup := experiments.PaperSetup()
	setup.Pool = runner.New(*workers)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	for _, e := range experimentList {
		if *which != "all" && *which != e.name {
			continue
		}
		start := time.Now()
		if err := e.run(ctx, setup); err != nil {
			stopProfiles()
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "specbench: %s: canceled after %v\n",
					e.name, time.Since(start).Round(time.Millisecond))
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "specbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s finished in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}

// startProfiles starts the requested pprof profiles and returns an
// idempotent stop function that flushes them.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recently freed objects out of the live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}

func fig2(_ context.Context, setup experiments.Setup) error {
	res, err := experiments.Fig2(setup)
	if err != nil {
		return err
	}
	fmt.Println("Figure 2/3 — motivating example (512-line cache, ph spans 510 lines)")
	fmt.Printf("  abstract  non-speculative: ph[k] always-hit = %v (claims the hit)\n", res.NonSpecAlwaysHit)
	fmt.Printf("  abstract  speculative:     ph[k] always-hit = %v (refuses the proof)\n", res.SpecAlwaysHit)
	fmt.Printf("  concrete  non-speculative: %d misses + %d hit\n", res.NonSpecMisses, res.NonSpecHits)
	fmt.Printf("  concrete  mis-speculated:  %d observable misses + %d wrong-path miss = %d total\n",
		res.SpecMisses, res.SpecSpMisses, res.SpecMisses+res.SpecSpMisses)
	return nil
}

func table3(context.Context, experiments.Setup) error {
	return stats("Table 3 — execution time estimation: benchmark statistics", experiments.Table3())
}

func table4(context.Context, experiments.Setup) error {
	return stats("Table 4 — side channel detection: benchmark statistics", experiments.Table4())
}

func stats(title string, rows []experiments.StatRow) error {
	fmt.Println(title)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Name, r.Origin, r.Description, fmt.Sprint(r.LoC)})
	}
	fmt.Print(experiments.FormatTable([]string{"Name", "Source", "Description", "LoC"}, cells))
	return nil
}

func table5(ctx context.Context, setup experiments.Setup) error {
	rows, err := experiments.Table5(ctx, setup)
	if err != nil {
		return err
	}
	fmt.Println("Table 5 — execution time estimation: non-speculative vs speculative")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name,
			r.NonSpecTime.Round(time.Millisecond).String(), fmt.Sprint(r.NonSpecMiss),
			r.SpecTime.Round(time.Millisecond).String(), fmt.Sprint(r.SpecMiss),
			fmt.Sprint(r.SpecSpMiss), fmt.Sprint(r.Branches), fmt.Sprint(r.Iterations),
		})
	}
	fmt.Print(experiments.FormatTable(
		[]string{"Name", "Time(ns)", "#Miss", "Time(sp)", "#Miss(sp)", "#SpMiss", "#Branch", "#Iteration"},
		cells))
	return nil
}

func table6(ctx context.Context, setup experiments.Setup) error {
	rows, err := experiments.Table6(ctx, setup)
	if err != nil {
		return err
	}
	fmt.Println("Table 6 — merging strategies: merge-at-rollback (Fig. 6d) vs just-in-time (Fig. 6c)")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name,
			r.RollbackTime.Round(time.Millisecond).String(), fmt.Sprint(r.RollbackMiss),
			fmt.Sprint(r.RollbackSpMiss), fmt.Sprint(r.RollbackIter),
			r.JITTime.Round(time.Millisecond).String(), fmt.Sprint(r.JITMiss),
			fmt.Sprint(r.JITSpMiss), fmt.Sprint(r.JITIter),
		})
	}
	fmt.Print(experiments.FormatTable(
		[]string{"Name", "RB-Time", "RB-#Miss", "RB-#SpMiss", "RB-#Ite", "JIT-Time", "JIT-#Miss", "JIT-#SpMiss", "JIT-#Ite"},
		cells))
	return nil
}

func table7(ctx context.Context, setup experiments.Setup) error {
	rows, err := experiments.Table7(ctx, setup)
	if err != nil {
		return err
	}
	fmt.Println("Table 7 — side channel detection (buffer found by sweeping, as §7.3)")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name, fmt.Sprint(r.BufferBytes),
			r.NonSpecTime.Round(time.Millisecond).String(), leak(r.NonSpecLeak),
			r.SpecTime.Round(time.Millisecond).String(), leak(r.SpecLeak),
		})
	}
	fmt.Print(experiments.FormatTable(
		[]string{"Name", "Buffer(B)", "NS-Time", "NS-Leak", "SP-Time", "SP-Leak"},
		cells))
	return nil
}

func depth(ctx context.Context, setup experiments.Setup) error {
	rows, err := experiments.DepthAblation(ctx, setup)
	if err != nil {
		return err
	}
	fmt.Println("§6.2 ablation — dynamic speculation-depth bounding on/off")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name,
			r.BoundedTime.Round(time.Millisecond).String(), fmt.Sprint(r.BoundedMiss), fmt.Sprint(r.BoundedIter),
			r.UnboundedTime.Round(time.Millisecond).String(), fmt.Sprint(r.UnboundedMiss), fmt.Sprint(r.UnboundedIter),
		})
	}
	fmt.Print(experiments.FormatTable(
		[]string{"Name", "On-Time", "On-#Miss", "On-#Ite", "Off-Time", "Off-#Miss", "Off-#Ite"},
		cells))
	return nil
}

func icache(ctx context.Context, setup experiments.Setup) error {
	const lines = 16
	rows, err := experiments.ICacheTable(ctx, lines, setup)
	if err != nil {
		return err
	}
	fmt.Printf("§3.2 extension — instruction cache analysis (%d-line i-cache)\n", lines)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name, fmt.Sprint(r.Fetches), fmt.Sprint(r.NonSpecMiss),
			fmt.Sprint(r.SpecMiss), fmt.Sprint(r.SpecSpMiss),
		})
	}
	fmt.Print(experiments.FormatTable(
		[]string{"Name", "#Fetch", "NS-#Miss", "SP-#Miss", "#SpMiss"}, cells))
	return nil
}

func geometry(ctx context.Context, setup experiments.Setup) error {
	lineCounts := []int{8, 16, 32, 64, 128, 256, 512}
	rows, err := experiments.GeometrySweep(ctx, "g72", lineCounts, setup)
	if err != nil {
		return err
	}
	fmt.Println("Cache-geometry sweep (g72): where speculation-awareness matters")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprint(r.Lines), fmt.Sprint(r.NonSpecMiss),
			fmt.Sprint(r.SpecMiss), fmt.Sprint(r.SpecSpMiss),
		})
	}
	fmt.Print(experiments.FormatTable(
		[]string{"Lines", "NS-#Miss", "SP-#Miss", "#SpMiss"}, cells))
	return nil
}

func leak(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}
