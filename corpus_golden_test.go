package specabsint

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/cache"
	"specabsint/internal/core"
	"specabsint/internal/runner"
)

// corpusDigestCheap is the slice of the corpus checked under -race and
// -short, where the detector makes the full sweep an order of magnitude
// slower: Fig. 2, one loop-carrying WCET kernel, and two side-channel
// kernels (des also pins a fence set).
var corpusDigestCheap = map[string]bool{"fig2": true, "jcmarker": true, "hash": true, "des": true}

// corpusDigestMitigate names the programs whose synthesized fence set is
// pinned alongside their analysis digest.
var corpusDigestMitigate = map[string]bool{"fig2": true, "ocb": true, "des": true}

// corpusProgram is one named program of the paper corpus.
type corpusProgram struct {
	name, src string
}

// paperCorpus returns the paper's 21 programs in a fixed order: Fig. 2, then
// bench.All(), with side-channel kernels wrapped in the 4 KiB client.
func paperCorpus() []corpusProgram {
	out := []corpusProgram{{"fig2", bench.Fig2Program(-1)}}
	for _, b := range bench.All() {
		code := b.Code
		if b.Kind == bench.SideChannel {
			code = bench.WithClient(b, 4096)
		}
		out = append(out, corpusProgram{b.Name, code})
	}
	return out
}

// classificationText renders every externally observable verdict of a
// report: per-access classifications, the miss counts, leaks, and gadgets.
func classificationText(rep *Report) string {
	var sb strings.Builder
	for _, a := range rep.Accesses {
		fmt.Fprintf(&sb, "line=%d store=%v sym=%s class=%v spec=%v reached=%v\n",
			a.Line, a.Store, a.Symbol, a.Class, a.SpecClass, a.SpecReached)
	}
	fmt.Fprintf(&sb, "misses=%d specmisses=%d branches=%d\n", rep.Misses, rep.SpecMisses, rep.Branches)
	for _, l := range rep.Leaks {
		fmt.Fprintf(&sb, "leak line=%d sym=%s store=%v class=%v\n", l.Line, l.Symbol, l.Store, l.Class)
	}
	for _, g := range rep.SpectreGadgets {
		fmt.Fprintf(&sb, "gadget line=%d sym=%s store=%v class=%v\n", g.Line, g.Symbol, g.Store, g.Class)
	}
	return sb.String()
}

// execReportText is classificationText plus the full WCET estimate.
func execReportText(rep *Report) string {
	return classificationText(rep) + fmt.Sprintf("wcet=%+v\n", rep.WCET)
}

// corpusDigestGeometry is one cache geometry the corpus digest golden pins,
// with the golden file its lines live in.
type corpusDigestGeometry struct {
	name  string
	file  string
	cache CacheConfig
	// fences also pins the synthesized fence sets of corpusDigestMitigate's
	// programs; one geometry pinning them is enough.
	fences bool
}

// corpusDigestGeometries are the pinned geometries: the paper's 512-line
// fully associative cache, and a 64-set × 8-way cache whose set mapping
// exercises the strided domain operations a one-set cache never does.
var corpusDigestGeometries = []corpusDigestGeometry{
	{name: "paper", file: "corpus_digest.txt", cache: PaperCache(), fences: true},
	{name: "64x8", file: "corpus_digest_64x8.txt", cache: CacheConfig{LineSize: 64, NumSets: 64, Assoc: 8}},
}

// corpusDigestLine analyzes one program under DefaultConfig on the
// geometry's cache and renders its digest: the headline counts, a SHA-256
// of every verdict and the WCET estimate, a SHA-256 of the ZeroTimes stats
// document, and, when the geometry pins fences and the program is in
// corpusDigestMitigate, the synthesized fences and residuals.
func corpusDigestLine(t *testing.T, cp corpusProgram, geom corpusDigestGeometry) string {
	t.Helper()
	opts := []Option{WithStats(true), WithCache(geom.cache)}
	p, err := CompileOpts(cp.src, opts...)
	if err != nil {
		t.Fatalf("%s: %v", cp.name, err)
	}
	rep, err := AnalyzeContext(context.Background(), p, opts...)
	if err != nil {
		t.Fatalf("%s: %v", cp.name, err)
	}
	rep.Stats.ZeroTimes()
	stats, err := rep.Stats.JSON()
	if err != nil {
		t.Fatalf("%s: %v", cp.name, err)
	}
	line := fmt.Sprintf("%s accesses=%d misses=%d specmisses=%d leaks=%d report=%x stats=%x",
		cp.name, len(rep.Accesses), rep.Misses, rep.SpecMisses, len(rep.Leaks),
		sha256.Sum256([]byte(execReportText(rep))), sha256.Sum256(stats))
	if geom.fences && corpusDigestMitigate[cp.name] {
		mrep, err := Mitigate(context.Background(), p, WithCache(geom.cache))
		if err != nil {
			t.Fatalf("%s: mitigate: %v", cp.name, err)
		}
		fences := make([]string, len(mrep.Fences))
		for i, f := range mrep.Fences {
			fences[i] = fmt.Sprintf("%s+%d@%d:%s", f.Block, f.Index, f.Line, f.Symbol)
		}
		line += fmt.Sprintf(" fences=[%s] residual_leaks=%d residual_gadgets=%d",
			strings.Join(fences, ","), mrep.ResidualLeaks, mrep.ResidualGadgets)
	}
	return line
}

// TestGoldenCorpusDigest pins the analyzer's output on the whole paper
// corpus at every geometry in corpusDigestGeometries: one digest line per
// program in the geometry's file under testdata/golden. Any change to an
// access verdict, a leak, the WCET bound, a deterministic stats counter, or
// a synthesized fence shows up as a changed line. Under -race or -short only
// the cheap slice is analyzed, and its lines are compared against the full
// golden file.
func TestGoldenCorpusDigest(t *testing.T) {
	for _, geom := range corpusDigestGeometries {
		t.Run(geom.name, func(t *testing.T) { checkCorpusDigest(t, geom) })
	}
}

func checkCorpusDigest(t *testing.T, geom corpusDigestGeometry) {
	cheap := (raceDetectorOn || testing.Short()) && !*updateGolden
	var lines []string
	for _, cp := range paperCorpus() {
		if cheap && !corpusDigestCheap[cp.name] {
			continue
		}
		lines = append(lines, corpusDigestLine(t, cp, geom))
	}
	checkDigestLines(t, geom.file, lines, cheap)
}

// checkDigestLines checks computed digest lines against a golden file under
// testdata/golden: the whole file when every program was analyzed, else each
// line against the file's line with the same key, the fields before the
// first key=value field.
func checkDigestLines(t *testing.T, file string, lines []string, cheap bool) {
	t.Helper()
	if !cheap {
		checkGolden(t, file, strings.Join(lines, "\n")+"\n")
		return
	}
	got := map[string]string{}
	for _, ln := range lines {
		got[digestKey(ln)] = ln
	}
	path := filepath.Join("testdata", "golden", file)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		key := digestKey(ln)
		if g, ok := got[key]; ok {
			if g != ln {
				t.Errorf("%s drifted from %s:\n got %s\nwant %s", key, path, g, ln)
			}
			delete(got, key)
		}
	}
	for key := range got {
		t.Errorf("%s has no line in %s", key, path)
	}
}

// digestKey returns the key of a digest line: its fields before the first
// one holding "=", such as "des" or "des icache".
func digestKey(ln string) string {
	fields := strings.Fields(ln)
	for i, f := range fields {
		if strings.Contains(f, "=") {
			return strings.Join(fields[:i], " ")
		}
	}
	return ln
}

// corpusModelsCheap reports whether a program is in the slice of the corpus
// the models digest checks under -race and -short: Fig. 2, the ten
// side-channel kernels in the 4 KiB client, and two WCET kernels (gtk and
// jdmarker carry loops and nested branches at a fraction of the i-cache
// cost of susan or adpcm).
func corpusModelsCheap(name string) bool {
	b, ok := bench.ByName(name)
	return name == "fig2" || name == "gtk" || name == "jdmarker" || (ok && b.Kind == bench.SideChannel)
}

// corpusModelLine analyzes one program under the i-cache or the persistence
// model with core.DefaultOptions on the paper's cache and renders its
// digest: the access counts, a SHA-256 of every architectural and wrong-path
// verdict by instruction id, and a SHA-256 of the fixpoint counters with
// states_pooled zeroed (it counts scratch-state reuse, not analysis work).
func corpusModelLine(t *testing.T, cp corpusProgram, model string) string {
	t.Helper()
	prog, _, err := runner.Compile(cp.src, 0, true)
	if err != nil {
		t.Fatalf("%s: %v", cp.name, err)
	}
	var res *core.Result
	if model == "icache" {
		res, err = core.AnalyzeInstructionCache(prog, core.DefaultOptions())
	} else {
		res, err = core.AnalyzePersistence(prog, core.DefaultOptions())
	}
	if err != nil {
		t.Fatalf("%s %s: %v", cp.name, model, err)
	}
	ids := make([]int, 0, len(res.Access))
	for id := range res.Access {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var classes strings.Builder
	hits := 0
	for _, id := range ids {
		cls := res.Access[id].Class
		if cls == cache.AlwaysHit {
			hits++
		}
		fmt.Fprintf(&classes, "%d %v", id, cls)
		if spec, ok := res.SpecAccess[id]; ok {
			fmt.Fprintf(&classes, " spec=%v", spec)
		}
		classes.WriteString("\n")
	}
	counters := res.Stats
	counters.StatesPooled = 0
	return fmt.Sprintf("%s %s accesses=%d hits=%d spec=%d classes=%x counters=%x",
		cp.name, model, len(ids), hits, len(res.SpecAccess),
		sha256.Sum256([]byte(classes.String())), sha256.Sum256([]byte(fmt.Sprintf("%+v", counters))))
}

// TestGoldenCorpusDigestModels pins the instruction-cache and persistence
// analyses, which share the data-cache analysis's fixpoint and lane walks
// but are otherwise pinned by no corpus-wide golden: one line per program
// of the whole corpus and model in testdata/golden/corpus_digest_models.txt.
// Under -race or -short only corpusModelsCheap's slice is analyzed, and its
// lines are compared against the full golden file.
func TestGoldenCorpusDigestModels(t *testing.T) {
	cheap := (raceDetectorOn || testing.Short()) && !*updateGolden
	var lines []string
	for _, cp := range paperCorpus() {
		if cheap && !corpusModelsCheap(cp.name) {
			continue
		}
		for _, model := range []string{"icache", "persist"} {
			lines = append(lines, corpusModelLine(t, cp, model))
		}
	}
	checkDigestLines(t, "corpus_digest_models.txt", lines, cheap)
}
