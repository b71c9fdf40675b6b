// Command benchmark is the repository's benchmark: three workloads, from the
// paper's evaluation corpus to the specserve HTTP daemon, timed from outside
// the program through its public entry points, with every verdict checked
// outside the timed sections. Each workload runs in its own child process,
// so its peak memory is its own. README.md gives the reasons for each
// workload, what every metric means, and how to read a traced run.
//
// Usage, from this directory (run.sh does the same from the repository root
// and also builds the daemon):
//
//	go run . -seed N [-workload W] [-seconds S] [-trace 0|1] [-spans DIR]
//	         [-o out.json] [-specserve PATH]
//
// The output is one "workload metric value unit" line per metric, the
// per-layer table of a traced run, and, as the last line, one JSON object
// with the keys correct, attempted, failed and metrics. The exit code is
// nonzero when any operation or correctness check failed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// childTimeout bounds one workload's child process, leaving headroom under
// the three minutes one benchmark invocation may take.
const childTimeout = 170 * time.Second

// config is one invocation's settings, shared by the parent and the child
// processes it starts.
type config struct {
	seed      int64
	seconds   float64
	trace     bool
	spansDir  string
	specserve string
	// limit caps each workload's program list (0 = all); the smoke test uses
	// it to run every workload at a tiny scale.
	limit int
	// rate is serve-mix's open-loop arrival rate in requests per second.
	rate float64
}

func main() {
	workload := flag.String("workload", "", "run only this workload (default: all)")
	seed := flag.Int64("seed", 1, "seed for every generated input and shuffle")
	seconds := flag.Float64("seconds", 20, "measurement budget of each workload, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	spans := flag.String("spans", "", "traced run: write <dir>/<workload>.spans.json")
	out := flag.String("o", "", "also write the full results with run metadata to this JSON file")
	specserve := flag.String("specserve", "", "path to a built cmd/specserve binary (needed by serve-mix)")
	child := flag.String("child", "", "internal: run one workload in this process and print its result")
	flag.Parse()

	cfg := config{
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		spansDir:  *spans,
		specserve: *specserve,
		rate:      defaultRate,
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *child != "" {
		res := runWorkload(context.Background(), *child, cfg)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("%v", err)
		}
		return
	}

	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fatalf("unknown workload %q (want one of %v)", *workload, workloadNames)
		}
		names = []string{*workload}
	}
	var results []*result
	for _, name := range names {
		res, err := runChild(name, cfg)
		if err != nil {
			res = &result{Workload: name, Attempted: 1}
			res.fail("%v", err)
		}
		printResult(res, cfg.trace)
		results = append(results, res)
	}
	if *out != "" {
		if err := writeReport(*out, cfg, results); err != nil {
			fatalf("%v", err)
		}
	}
	line, failed := summary(results, cfg.trace)
	fmt.Println(line)
	if failed {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runChild re-executes this binary for one workload. The child leads its own
// process group, so a timeout kills it together with every process it
// started, and so does its exit: nothing it started outlives it.
func runChild(name string, cfg config) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", trace, "-spans", cfg.spansDir, "-specserve", cfg.specserve)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	if cmd.Process != nil {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // ESRCH when the group is already gone
	}
	if err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("%s: killed after %v", name, childTimeout)
		}
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var res result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s: reading the child's result: %w", name, err)
	}
	return &res, nil
}

// printResult writes one "workload metric value unit" line per metric, the
// failures, and the traced run's per-layer table.
func printResult(res *result, trace bool) {
	for _, m := range metricDefs(trace) {
		fmt.Printf("%s %s %s %s\n", res.Workload, m.name, formatValue(res.Metrics[m.name]), m.unit)
	}
	if cal := res.Samples["calibration_ms"]; len(cal) > 0 {
		fmt.Printf("%s calibration %.3f ms (median of %d samples): times scaled by %.4f to the %v reference\n",
			res.Workload, median(cal), len(cal), ms(calibrationReference)/median(cal), calibrationReference)
	}
	fmt.Printf("%s digest %s (%d programs, %d operations, %d failed)\n",
		res.Workload, res.Digest, res.Programs, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("%s FAILED %s\n", res.Workload, f)
	}
	if res.Layers != "" {
		fmt.Print(res.Layers)
	}
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// summaryMetric is one entry of the final line's metrics object.
type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary renders the final output line. With several workloads the metric
// names are prefixed by the workload's name.
func summary(results []*result, trace bool) (string, bool) {
	doc := struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]summaryMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]summaryMetric{}}
	for _, res := range results {
		doc.Attempted += res.Attempted
		doc.Failed += res.Failed
		for _, m := range metricDefs(trace) {
			key := m.name
			if len(results) > 1 {
				key = res.Workload + "/" + m.name
			}
			doc.Metrics[key] = summaryMetric{Value: res.Metrics[m.name], Unit: m.unit}
		}
	}
	doc.Correct = doc.Failed == 0
	line, err := json.Marshal(doc)
	if err != nil {
		fatalf("%v", err)
	}
	return string(line), !doc.Correct
}

// meta identifies the machine and build a report was measured with.
type meta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Commit     string `json:"commit"`
}

func newMeta() meta {
	m := meta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && m.Commit != "unknown" {
			m.Commit += "-dirty"
		}
	}
	return m
}

func writeReport(path string, cfg config, results []*result) error {
	doc := struct {
		Meta      meta      `json:"meta"`
		Seed      int64     `json:"seed"`
		Seconds   float64   `json:"seconds"`
		Trace     bool      `json:"trace"`
		Workloads []*result `json:"workloads"`
	}{newMeta(), cfg.seed, cfg.seconds, cfg.trace, results}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
