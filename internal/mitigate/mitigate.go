// Package mitigate turns the speculative side-channel analyzer into a
// fixer: it synthesizes a low-cost set of fence instructions that makes the
// analysis report zero speculation-induced leaks, then verifies the repaired
// program.
//
// The repair loop is classic analysis-guided search. Candidate fence
// placements are seeded from the analysis itself: a singleton site before
// the earliest wrong-path-reachable memory access of every block (the
// instructions whose speculative transfers pollute the cache state and whose
// lane verdicts transmit secrets), and one *pair* per unresolved branch —
// fences at the entries of both successors, cutting that branch's two
// speculation colors at their source (a single successor fence kills only
// one predicted direction, which often has zero gain on its own). A greedy
// set-cover over the leak -> candidate bipartite map picks candidates one at
// a time: each round re-analyzes the program with every remaining candidate
// added to the chosen set, takes the one eliminating the most remaining
// leaks, and breaks ties by the smaller WCET charge. A final reverse-order
// per-site pruning pass drops any individual fence whose removal keeps the
// achieved leak set, restoring minimality that grouped picks may overshoot.
//
// Soundness of the search rests on monotone leak removal: a fence only
// terminates speculative lanes (internal/core kills any lane crossing it,
// the concrete machine squashes wrong-path execution at it), so inserting
// one removes join contributions from the fixpoint system and every abstract
// state can only become more precise. Classifications move from Unknown
// toward AlwaysHit/AlwaysMiss, never the other way, so fencing can only
// shrink the leak set — greedy progress is never undone. Leaks that survive
// the full candidate set are not speculation-induced (they exist under the
// classic analysis too) and are reported as residual rather than papered
// over; no fence set can repair them.
package mitigate

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/irverify"
	"specabsint/internal/machine"
	"specabsint/internal/sidechannel"
	"specabsint/internal/taint"
	"specabsint/internal/wcet"
)

// Options configures a synthesis run.
type Options struct {
	// Core is the analysis configuration the repair loop must satisfy;
	// Speculative is forced on (a fence synthesizer for the classic analysis
	// is meaningless).
	Core core.Options
	// Costs feeds the WCET estimates used for candidate tie-breaking and the
	// reported overhead.
	Costs wcet.CostModel
	// Verify runs the differential secret-pair trace check on the fenced
	// program (see Report.Verified).
	Verify bool
	// SecretPairs are the (s1, s2) secret assignments the differential check
	// compares, mirroring the fuzz oracle's defaults.
	SecretPairs [][2]int64
	// MaxSteps bounds each concrete verification replay.
	MaxSteps int64
}

// DefaultOptions mirrors the analyzer's and the fuzz oracle's defaults.
func DefaultOptions() Options {
	return Options{
		Core:        core.DefaultOptions(),
		Costs:       wcet.DefaultCosts(),
		Verify:      true,
		SecretPairs: [][2]int64{{0, 15}, {3, 12}, {7, 8}},
		MaxSteps:    2_000_000,
	}
}

// Fence describes one synthesized fence placement. Block/Index locate the
// insertion point in the *input* program: the fence sits immediately before
// the instruction at that index.
type Fence struct {
	Block ir.BlockID
	// Label is the block's label, for rendering.
	Label string
	// Index is the instruction index the fence precedes.
	Index int
	// Line is the source line of the protected instruction (0 for
	// synthesized instructions).
	Line int
	// Symbol names the protected access's variable, or "" when the fence
	// anchors to a non-memory instruction (a speculation-window entry).
	Symbol string
}

// String renders the placement for reports.
func (f Fence) String() string {
	at := fmt.Sprintf("%s+%d", f.Label, f.Index)
	if f.Symbol != "" {
		return fmt.Sprintf("fence at %s (line %d, before access to %s)", at, f.Line, f.Symbol)
	}
	return fmt.Sprintf("fence at %s (line %d)", at, f.Line)
}

// Report is the outcome of one synthesis run.
type Report struct {
	// Fences is the synthesized placement set, in insertion order (sorted by
	// block, then index).
	Fences []Fence
	// BaselineLeaks / BaselineGadgets count the input program's reported
	// cache timing leaks and Spectre transmission gadgets.
	BaselineLeaks   int
	BaselineGadgets int
	// ResidualLeaks / ResidualGadgets count what survives the fence set.
	// Nonzero residual leaks are not speculation-induced: they are reported
	// by the classic analysis too, and no fence can remove them.
	ResidualLeaks   int
	ResidualGadgets int
	// Candidates counts the seeded fence sites; Analyses the re-analysis
	// runs the search spent.
	Candidates int
	Analyses   int
	// BaselineWCET / MitigatedWCET are the architectural worst-case cycle
	// bounds (plus the pessimistic speculative charge), -1 when the CFG is
	// cyclic; WCETBounded reports whether both bounds exist.
	BaselineWCET  int64
	MitigatedWCET int64
	WCETBounded   bool
	// OverheadPercent is 100*(MitigatedWCET-BaselineWCET)/BaselineWCET,
	// rounded to two decimals; 0 when unbounded. Negative overhead is real:
	// killing speculation also removes wrong-path misses from the bound.
	OverheadPercent float64
	// Verified reports that the differential secret-pair check ran on the
	// fenced program and found no unreported secret-varying trace pair;
	// VerifySkipped that the check could not run (no secrets, or
	// secret-dependent control flow, or verification disabled). Traces
	// counts concrete replays.
	Verified      bool
	VerifySkipped bool
	Traces        int
	// Program is the fenced program (the input program itself when Fences is
	// empty). It passes internal/irverify.
	Program *ir.Program
}

// site is an insertion point in the input program.
type site struct {
	block ir.BlockID
	index int
}

// leakKey identifies a leak stably across re-analyses of differently-fenced
// programs, in the input program's instruction-id space.
type leakKey struct {
	gadget bool
	origID int
}

// Synthesize runs the repair loop on prog and returns the fence set, the
// fenced program, and the verification outcome. prog is not modified.
func Synthesize(ctx context.Context, prog *ir.Program, opts Options) (*Report, error) {
	opts.Core.Speculative = true
	opts.Core.Collector = nil
	if opts.MaxSteps == 0 {
		opts.MaxSteps = DefaultOptions().MaxSteps
	}

	rep := &Report{Program: prog}
	base, err := analyzeLeaks(ctx, prog, identityIDs(prog), opts)
	if err != nil {
		return nil, err
	}
	rep.Analyses++
	rep.BaselineLeaks, rep.BaselineGadgets = countKinds(base.leaks)
	rep.BaselineWCET = base.wcetBound

	candidates := candidateSites(prog, base.rep)
	rep.Candidates = len(candidates)

	chosen, remaining, analyses, err := greedyCover(ctx, prog, opts, candidates, base.leaks)
	if err != nil {
		return nil, err
	}
	rep.Analyses += analyses

	// Escalation: when no single candidate makes progress but leaks remain,
	// the pollution may flow from several speculation windows at once (each
	// fence alone has zero gain — common on cyclic CFGs, where every loop
	// branch spawns colors). Try the full candidate union; if it strictly
	// shrinks the leak set, accept it and let the pruning pass below cut it
	// back to a minimal subset.
	if len(remaining) > 0 {
		all := unionSites(chosen, candidates)
		if len(all) > len(chosen) {
			res, err := analyzeSites(ctx, prog, all, opts)
			if err != nil {
				return nil, err
			}
			rep.Analyses++
			if len(res.leaks) < len(remaining) {
				chosen, remaining = all, res.leaks
				sortSites(chosen)
			}
		}
	}

	// Reverse-order pruning: drop any fence whose removal keeps the achieved
	// leak set (only exercised when the set is minimal-redundant, e.g. an
	// early pick subsumed by later ones).
	if len(chosen) > 1 {
		for i := len(chosen) - 1; i >= 0; i-- {
			trial := append(append([]site(nil), chosen[:i]...), chosen[i+1:]...)
			res, err := analyzeSites(ctx, prog, trial, opts)
			if err != nil {
				return nil, err
			}
			rep.Analyses++
			if len(res.leaks) == len(remaining) {
				chosen = trial
			}
		}
	}

	final, err := analyzeSites(ctx, prog, chosen, opts)
	if err != nil {
		return nil, err
	}
	rep.Analyses++
	rep.ResidualLeaks, rep.ResidualGadgets = countKinds(final.leaks)
	rep.MitigatedWCET = final.wcetBound
	rep.WCETBounded = rep.BaselineWCET >= 0 && rep.MitigatedWCET >= 0
	if rep.WCETBounded && rep.BaselineWCET > 0 {
		raw := 100 * float64(rep.MitigatedWCET-rep.BaselineWCET) / float64(rep.BaselineWCET)
		rep.OverheadPercent = math.Round(raw*100) / 100
	}
	rep.Fences = describeSites(prog, chosen)
	if len(chosen) == 0 {
		rep.Program = prog
	} else {
		rep.Program = final.prog
	}

	if err := irverify.Verify(rep.Program); err != nil {
		return nil, fmt.Errorf("mitigate: fenced program fails verification: %w", err)
	}
	if opts.Verify {
		verified, traces, skipped, err := verifyDifferential(rep.Program, final.rep, opts)
		if err != nil {
			return nil, err
		}
		rep.Verified, rep.Traces, rep.VerifySkipped = verified, traces, skipped
	} else {
		rep.VerifySkipped = true
	}
	return rep, nil
}

// analysis bundles one re-analysis of a (possibly fenced) program.
type analysis struct {
	prog *ir.Program
	rep  *sidechannel.Report
	// leaks is the surviving leak set keyed in the input program's id space.
	leaks map[leakKey]bool
	// wcetBound is the architectural worst-case bound (-1 when cyclic).
	wcetBound int64
	// charge is the tie-break cost: the bound (when it exists) plus the
	// pessimistic speculative miss charge.
	charge int64
}

// analyzeSites builds the fenced program for the given sites and analyzes it.
func analyzeSites(ctx context.Context, prog *ir.Program, sites []site, opts Options) (*analysis, error) {
	fenced, origID := buildFenced(prog, sites)
	return analyzeLeaks(ctx, fenced, origID, opts)
}

// analyzeLeaks runs the side-channel analysis and maps the reported leaks
// back to the input program's instruction ids via origID.
func analyzeLeaks(ctx context.Context, prog *ir.Program, origID []int, opts Options) (*analysis, error) {
	rep, err := sidechannel.AnalyzeContext(ctx, prog, opts.Core)
	if err != nil {
		return nil, err
	}
	a := &analysis{prog: prog, rep: rep, leaks: map[leakKey]bool{}}
	for _, l := range rep.Leaks {
		a.leaks[leakKey{origID: origID[l.InstrID]}] = true
	}
	for _, l := range rep.SpectreLeaks {
		a.leaks[leakKey{gadget: true, origID: origID[l.InstrID]}] = true
	}
	est := wcet.New(rep.Analysis, opts.Costs)
	a.wcetBound = est.WorstCaseCycles
	a.charge = est.SpecExtraCycles
	if est.WorstCaseCycles >= 0 {
		a.charge += est.WorstCaseCycles
	}
	return a, nil
}

// candidate is one unit of the greedy search: one or more sites that are
// inserted together (a branch's two successor fences act as a pair).
type candidate struct {
	sites []site
}

// greedyCover picks candidates one per round: the one eliminating the most
// remaining leaks, ties broken by smaller WCET charge, then by candidate
// order. It stops when no candidate makes progress.
func greedyCover(ctx context.Context, prog *ir.Program, opts Options, candidates []candidate, baseLeaks map[leakKey]bool) (chosen []site, remaining map[leakKey]bool, analyses int, err error) {
	remaining = baseLeaks
	inChosen := map[site]bool{}
	union := func(cand candidate) []site {
		out := append([]site(nil), chosen...)
		for _, s := range cand.sites {
			if !inChosen[s] {
				out = append(out, s)
			}
		}
		return out
	}
	for len(remaining) > 0 {
		var best *analysis
		var bestSites []site
		bestGain := 0
		for _, cand := range candidates {
			trial := union(cand)
			if len(trial) == len(chosen) {
				continue // fully subsumed by earlier picks
			}
			res, err := analyzeSites(ctx, prog, trial, opts)
			if err != nil {
				return nil, nil, analyses, err
			}
			analyses++
			gain := len(remaining) - len(res.leaks)
			if gain > bestGain || (gain == bestGain && gain > 0 && res.charge < best.charge) {
				best, bestSites, bestGain = res, trial, gain
			}
		}
		if best == nil {
			break // residual leaks are not speculation-induced
		}
		chosen = bestSites
		for _, s := range chosen {
			inChosen[s] = true
		}
		remaining = best.leaks
	}
	sortSites(chosen)
	return chosen, remaining, analyses, nil
}

// candidateSites seeds the search from the analysis: a singleton candidate
// before the earliest wrong-path-reached memory access of every block
// (fencing there kills the lane before anything in the block pollutes or
// transmits), plus one pair candidate per unresolved conditional branch —
// fences at both successor entries, cutting both of the branch's speculation
// colors where their windows open.
func candidateSites(prog *ir.Program, rep *sidechannel.Report) []candidate {
	var out []candidate
	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			if _, ok := rep.Analysis.SpecAccess[b.Instrs[i].ID]; ok {
				out = append(out, candidate{sites: []site{{block: b.ID, index: i}}})
				break
			}
		}
	}
	for _, b := range prog.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr || t.Resolved {
			continue
		}
		out = append(out, candidate{sites: []site{
			{block: t.TrueTarget, index: 0},
			{block: t.FalseTarget, index: 0},
		}})
	}
	return out
}

// unionSites merges the chosen sites with every candidate's sites, deduped.
func unionSites(chosen []site, candidates []candidate) []site {
	seen := map[site]bool{}
	var out []site
	add := func(s site) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range chosen {
		add(s)
	}
	for _, c := range candidates {
		for _, s := range c.sites {
			add(s)
		}
	}
	return out
}

func sortSites(sites []site) {
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].block != sites[j].block {
			return sites[i].block < sites[j].block
		}
		return sites[i].index < sites[j].index
	})
}

// buildFenced clones prog with a fence inserted before each site and
// finalizes it. origID maps every new instruction id to the corresponding
// input-program id (-1 for the inserted fences).
func buildFenced(prog *ir.Program, sites []site) (*ir.Program, []int) {
	at := map[site]bool{}
	for _, s := range sites {
		at[s] = true
	}
	out := &ir.Program{
		Name:       prog.Name,
		Symbols:    prog.Symbols,
		Entry:      prog.Entry,
		NumRegs:    prog.NumRegs,
		SecretRegs: prog.SecretRegs,
		InputRegs:  prog.InputRegs,
	}
	var origID []int
	for _, b := range prog.Blocks {
		nb := &ir.Block{ID: b.ID, Label: b.Label}
		nb.Instrs = make([]ir.Instr, 0, len(b.Instrs)+1)
		for i := range b.Instrs {
			if at[site{block: b.ID, index: i}] {
				nb.Instrs = append(nb.Instrs, ir.Instr{Op: ir.OpFence, Line: b.Instrs[i].Line})
				origID = append(origID, -1)
			}
			nb.Instrs = append(nb.Instrs, b.Instrs[i])
			origID = append(origID, b.Instrs[i].ID)
		}
		out.Blocks = append(out.Blocks, nb)
	}
	out.Finalize()
	return out, origID
}

// identityIDs is origID for the unfenced input program itself.
func identityIDs(prog *ir.Program) []int {
	ids := make([]int, prog.NumInstrs)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// describeSites renders the chosen sites against the input program.
func describeSites(prog *ir.Program, sites []site) []Fence {
	var out []Fence
	for _, s := range sites {
		b := prog.Block(s.block)
		in := &b.Instrs[s.index]
		f := Fence{Block: s.block, Label: b.Label, Index: s.index, Line: in.Line}
		if in.Op == ir.OpLoad || in.Op == ir.OpStore {
			f.Symbol = prog.Symbol(in.Sym).Name
		}
		out = append(out, f)
	}
	return out
}

func countKinds(leaks map[leakKey]bool) (timing, gadgets int) {
	for k := range leaks {
		if k.gadget {
			gadgets++
		} else {
			timing++
		}
	}
	return timing, gadgets
}

// verifyDifferential replays the fenced program with secret assignments that
// differ only in the secret-tagged inputs (memory scalars via Inputs,
// `secret reg` registers via RegInputs) under worst-case speculation
// (every branch mispredicted, wrong-path OOB enabled), recording the
// architectural hit/miss sequence of every secret-indexed access. A
// divergence at an access the residual report does not name means the fence
// set failed to close a real channel. Programs with secret-dependent control
// flow, or without secrets, are skipped — mirroring the fuzz oracle's
// leak-completeness scope.
func verifyDifferential(prog *ir.Program, rep *sidechannel.Report, opts Options) (verified bool, traces int, skipped bool, err error) {
	tnt := taint.Analyze(prog)
	var secretSyms []string
	for _, s := range prog.Symbols {
		if s.Secret && s.Len == 1 {
			secretSyms = append(secretSyms, s.Name)
		}
	}
	if (len(secretSyms) == 0 && len(prog.SecretRegs) == 0) ||
		len(tnt.SecretBranches) > 0 || len(tnt.SecretIndexed) == 0 {
		return false, 0, true, nil
	}
	watch := map[int]bool{}
	for _, id := range tnt.SecretIndexed {
		watch[id] = true
	}
	leaked := map[int]bool{}
	for _, l := range rep.Leaks {
		leaked[l.InstrID] = true
	}

	trace := func(val int64) (map[int][]bool, error) {
		inputs := map[string]int64{}
		for _, n := range secretSyms {
			inputs[n] = val
		}
		regInputs := map[ir.Reg]int64{}
		for _, r := range prog.SecretRegs {
			regInputs[r] = val
		}
		cfg := machine.Config{
			Cache:           opts.Core.Cache,
			ForceMispredict: true,
			DepthMiss:       opts.Core.DepthMiss,
			DepthHit:        opts.Core.DepthHit,
			WrongPathOOB:    true,
			MaxSteps:        opts.MaxSteps,
			Inputs:          inputs,
			RegInputs:       regInputs,
		}
		sim, err := machine.New(prog, cfg)
		if err != nil {
			return nil, fmt.Errorf("mitigate: verification simulator: %w", err)
		}
		seq := map[int][]bool{}
		sim.OnAccess = func(r machine.AccessRecord) {
			if !r.Speculative && watch[r.InstrID] {
				seq[r.InstrID] = append(seq[r.InstrID], r.Hit)
			}
		}
		if err := sim.Run(); err != nil {
			return nil, fmt.Errorf("mitigate: verification replay: %w", err)
		}
		return seq, nil
	}

	pairs := opts.SecretPairs
	if len(pairs) == 0 {
		pairs = DefaultOptions().SecretPairs
	}
	for _, pair := range pairs {
		seqA, err := trace(pair[0])
		if err != nil {
			return false, traces, false, err
		}
		seqB, err := trace(pair[1])
		if err != nil {
			return false, traces, false, err
		}
		traces += 2
		for id, sa := range seqA {
			if !slices.Equal(sa, seqB[id]) && !leaked[id] {
				return false, traces, false, nil
			}
		}
		for id := range seqB {
			if _, ok := seqA[id]; !ok && !leaked[id] {
				return false, traces, false, nil
			}
		}
	}
	return true, traces, false, nil
}
