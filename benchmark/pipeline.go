package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"specabsint"
	"specabsint/internal/cache"
	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/lower"
	"specabsint/internal/obs"
	"specabsint/internal/passes"
	"specabsint/internal/sidechannel"
	"specabsint/internal/source"
	"specabsint/internal/wcet"
	"specabsint/wire"
)

// verdicts are one analysis's classifications by instruction id, the form
// the soundness gate replays against the concrete simulator.
type verdicts struct {
	arch map[int]cache.Classification
	spec map[int]cache.Classification
}

// analyzed is what the layer-by-layer pipeline keeps of one program: not
// the analysis result itself, whose per-block states would otherwise stay
// live for the rest of the run and inflate its peak memory.
type analyzed struct {
	prog     *ir.Program
	report   *specabsint.Report
	verdicts verdicts
	// digest hashes the report as specserve embeds it in a response.
	digest string
	// counts are the deterministic per-layer work counters.
	counts map[string]float64
}

// analyzeLayers runs the analysis one layer at a time, through each layer's
// public function, with a span under root around every call when tr is
// non-nil. The core/sidechannel split comes from the Stats phase timers the
// program already returns: core.AnalyzeContext is only reachable through
// sidechannel.AnalyzeContext. memory adds core.alloc_mb (bytes the analysis
// allocated) and core.result_mb (heap still live after a collection with the
// result held), at the price of two forced collections.
func analyzeLayers(ctx context.Context, src string, opts core.Options, tr *tracer, id string, round, root int, memory bool) (*analyzed, error) {
	sp := tr.begin("source.parse", id, round, root)
	ast, err := source.Parse(src)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("lower.lower", id, round, root)
	prog, err := lower.Lower(ast, lower.DefaultOptions())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("passes.run", id, round, root)
	pres, err := passes.Run(prog, passes.Default())
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	var before runtime.MemStats
	if memory {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	col := obs.NewCollector()
	opts.Collector = col
	sp = tr.begin("sidechannel.classify", id, round, root)
	rep, err := sidechannel.AnalyzeContext(ctx, prog, opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var allocMB, resultMB float64
	if memory {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		runtime.GC()
		runtime.ReadMemStats(&after)
		resultMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1e6
	}
	stats := col.Snapshot()
	if tr != nil {
		start := tr.at(sp)
		fix, exec := phase(stats, "fixpoint"), phase(stats, "compile_exec")
		tr.record("core.analyze", id, round, sp, start, start.Add(fix-exec))
		tr.record("core.compile_exec", id, round, sp, start.Add(fix-exec), start.Add(fix))
	}
	sp = tr.begin("wcet.estimate", id, round, root)
	est := wcet.New(rep.Analysis, wcet.DefaultCosts())
	tr.end(sp)

	out := &analyzed{prog: prog, report: publicReport(prog, rep, est)}
	sp = tr.begin("wire.encode", id, round, root)
	body, err := responseBody(out.report)
	tr.end(sp)
	if err == nil {
		out.digest, err = bodyDigest(body)
	}
	if err != nil {
		return nil, err
	}

	res := rep.Analysis
	out.verdicts = verdicts{arch: map[int]cache.Classification{}, spec: res.SpecAccess}
	for id, a := range res.Access {
		out.verdicts.arch[id] = a.Class
	}
	f := stats.Fixpoint
	universe := float64(res.Layout.NumBlocks)
	out.counts = map[string]float64{
		"lower.instrs":             float64(prog.InstrCount()),
		"lower.symbols":            float64(len(prog.Symbols)),
		"lower.blocks":             float64(len(prog.Blocks)),
		"passes.resolved_branches": float64(pres.ResolvedBranches),
		"core.universe_blocks":     universe,
		"core.iterations":          float64(f.Iterations),
		"core.transfers":           float64(f.Transfers),
		"core.spec_transfers":      float64(f.SpecTransfers),
		"core.joins":               float64(f.Joins),
		"core.spec_joins":          float64(f.SpecJoins),
		"core.lane_joins":          float64(f.LaneJoins),
		"core.rollbacks":           float64(f.Rollbacks),
		"core.lanes_spawned":       float64(f.LanesSpawned),
		"core.widenings":           float64(f.Widenings),
		// Every domain operation scans the whole block universe at
		// NumSets=1; with more sets this is an upper bound.
		"core.scan_words_est": float64(f.Transfers+f.SpecTransfers+f.Joins+f.SpecJoins+f.LaneJoins) * universe,
		"wire.response_kb":    float64(reportSize(body)) / 1000,
	}
	if memory {
		out.counts["core.alloc_mb"] = allocMB
		out.counts["core.result_mb"] = resultMB
	}
	return out, nil
}

func phase(s *obs.Stats, name string) time.Duration {
	var d time.Duration
	for _, p := range s.Phases {
		if p.Name == name {
			d += time.Duration(p.Nanos)
		}
	}
	return d
}

// publicReport assembles the specabsint.Report that AnalyzeContext returns
// for the same analysis. The digest check ties the two: a timed run's report
// must hash exactly like this one.
func publicReport(prog *ir.Program, rep *sidechannel.Report, est wcet.Estimate) *specabsint.Report {
	res := rep.Analysis
	out := &specabsint.Report{
		Misses:       res.MissCount(),
		SpecMisses:   res.SpecMissCount(),
		Branches:     res.Branches,
		Iterations:   res.Iterations,
		WCET:         est,
		LeakDetected: rep.LeakDetected(),
	}
	for _, l := range rep.Leaks {
		out.Leaks = append(out.Leaks, specabsint.Leak{Line: l.Line, Symbol: l.Sym, Store: l.Store, Class: l.Class})
	}
	for _, l := range rep.SpectreLeaks {
		out.SpectreGadgets = append(out.SpectreGadgets, specabsint.SpectreGadget{Line: l.Line, Symbol: l.Sym, Store: l.Store, Class: l.Class})
	}
	ids := make([]int, 0, len(res.Access))
	for id := range res.Access {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		info := res.Access[id]
		spec, reached := res.SpecAccess[id]
		out.Accesses = append(out.Accesses, specabsint.AccessReport{
			Line:        info.Instr.Line,
			Store:       info.Instr.Op == ir.OpStore,
			Symbol:      prog.Symbol(info.Instr.Sym).Name,
			Class:       info.Class,
			SpecClass:   spec,
			SpecReached: reached,
		})
	}
	return out
}

// responseBody renders rep exactly as specserve's POST /v1/analyze does, so
// an in-process report and a daemon response hash alike.
func responseBody(rep *specabsint.Report) ([]byte, error) {
	return wire.Marshal(wire.AnalyzeResponse{V: wire.Version, Report: wire.FromReport(rep)})
}

// reportKey opens the report in a canonical /v1/analyze response: the last
// field, after the per-request name, cache_hit and elapsed_nanos.
var reportKey = []byte(`"report": `)

// bodyDigest hashes the report part of a /v1/analyze response body. The
// verdict digest of a program is this hash: it covers every access's
// classification and speculative classification, the leaks, the gadgets and
// the WCET estimate.
func bodyDigest(body []byte) (string, error) {
	i := bytes.Index(body, reportKey)
	if i < 0 {
		return "", fmt.Errorf("response carries no report")
	}
	sum := sha256.Sum256(body[i:])
	return hex.EncodeToString(sum[:]), nil
}

// reportSize is the length of the report in a /v1/analyze response body.
func reportSize(body []byte) int {
	return len(body) - bytes.Index(body, reportKey) - len(reportKey)
}

func reportDigest(rep *specabsint.Report) (string, error) {
	body, err := responseBody(rep)
	if err != nil {
		return "", err
	}
	return bodyDigest(body)
}

// combinedDigest hashes per-program digests in canonical program order.
func combinedDigest(digests []string) string {
	h := sha256.New()
	for _, d := range digests {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
