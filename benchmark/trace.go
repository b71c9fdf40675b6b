package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Rounds that are not timed passes: the correctness gate (one pass over the
// workload's programs), and serve-mix's open loop and its untraced requests.
const (
	gateRound = -1
	openRound = -2
	untraced  = -3
)

// span is one call into a layer, timed from the benchmark's side of the
// layer's public function.
type span struct {
	Name string `json:"name"`
	// ID names the program or request the call served.
	ID    string `json:"id"`
	Round int    `json:"round"`
	// Parent indexes the enclosing span; -1 at a root.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, which is how the untraced paths share code with
// the traced ones.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, id string, round, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Round: round, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds were measured elsewhere: phases the
// program's own Stats timers report, or HTTP client events.
func (t *tracer) record(name, id string, round, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Round: round, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// at converts a span offset back to wall-clock time.
func (t *tracer) at(i int) time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.t0.Add(time.Duration(t.spans[i].Start))
}

// layerStats aggregates spans into per-round self times (ms) and counts by
// span name. A span's self time is its duration minus its children's.
type layerStats struct {
	self  map[int]map[string]float64
	count map[int]map[string]int
}

func (t *tracer) stats() layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	ls := layerStats{self: map[int]map[string]float64{}, count: map[int]map[string]int{}}
	for i, s := range t.spans {
		if ls.self[s.Round] == nil {
			ls.self[s.Round] = map[string]float64{}
			ls.count[s.Round] = map[string]int{}
		}
		ls.self[s.Round][s.Name] += self[i]
		ls.count[s.Round][s.Name]++
	}
	return ls
}

// perPass returns each span name's median self time over the timed rounds,
// and the gate's machine time (the gate is one pass over the programs).
func (ls layerStats) perPass() map[string]float64 {
	names := map[string]bool{}
	var rounds []int
	for r, self := range ls.self {
		if r >= 0 {
			rounds = append(rounds, r)
			for name := range self {
				names[name] = true
			}
		}
	}
	sort.Ints(rounds)
	out := map[string]float64{}
	for name := range names {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = ls.self[r][name] // 0 in a round the name is missing from
		}
		out[name] = median(xs)
	}
	out["machine.simulate"] = ls.self[gateRound]["machine.simulate"]
	return out
}

// table renders the per-layer self time per pass, its share of the traced
// pass, and the number of spans per pass, followed by the notes.
func (ls layerStats) table(workload string, notes []string) string {
	per := ls.perPass()
	total := 0.0
	for name, v := range per {
		if name != "machine.simulate" {
			total += v
		}
	}
	names := make([]string, 0, len(per))
	for name := range per {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if per[names[i]] != per[names[j]] {
			return per[names[i]] > per[names[j]]
		}
		return names[i] < names[j]
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s per-layer self time per traced pass:\n", workload)
	fmt.Fprintf(&sb, "%s   %-28s %12s %7s %11s\n", workload, "layer", "self ms", "share", "spans")
	for _, name := range names {
		share, round := "", 0
		if name == "machine.simulate" {
			share, round = "(gate)", gateRound
		} else if total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*per[name]/total)
		}
		fmt.Fprintf(&sb, "%s   %-28s %12.3f %7s %11d\n", workload, name, per[name], share, ls.count[round][name])
	}
	for _, n := range notes {
		fmt.Fprintf(&sb, "%s %s\n", workload, n)
	}
	return sb.String()
}

// write stores the spans as dir/<workload>.spans.json.
func (t *tracer) write(dir, workload string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".spans.json"), data, 0o644)
}

// passTime sums the durations of a round's pipeline root spans, in seconds.
func (t *tracer) passTime(round int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := 0.0
	for _, s := range t.spans {
		if s.Round == round && s.Parent < 0 && s.Name == "pipeline" {
			sum += s.dur() / 1000
		}
	}
	return sum
}
