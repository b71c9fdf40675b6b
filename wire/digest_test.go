package wire

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specabsint"
	"specabsint/internal/bench"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// digestCheap is the slice of the corpus the wire digest checks under -race
// and -short, the same slice the analysis digest goldens check there.
var digestCheap = map[string]bool{"fig2": true, "jcmarker": true, "hash": true, "des": true}

// digestPath is the golden file the wire digest lives in.
var digestPath = filepath.Join("..", "testdata", "golden", "wire_digest.txt")

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

// corpusReport analyzes src under the default configuration with stats on,
// wall-clock times zeroed.
func corpusReport(t testing.TB, name, src string) *specabsint.Report {
	t.Helper()
	opts := []specabsint.Option{specabsint.WithStats(true)}
	prog, err := specabsint.CompileOpts(src, opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rep, err := specabsint.AnalyzeContext(context.Background(), prog, opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rep.Stats.ZeroTimes()
	return rep
}

// withoutStats returns a shallow copy of rep with no stats section, the
// report an analysis without stats collection returns.
func withoutStats(rep *specabsint.Report) *specabsint.Report {
	plain := *rep
	plain.Stats = nil
	return &plain
}

// sum renders the SHA-256 of one encoding, failing the test on an error.
func sum(t *testing.T, enc []byte, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(enc))
}

// digestLine encodes one corpus program's report three ways and renders
// their digests: a /v1/analyze response body (Marshal of an
// AnalyzeResponse), a /v1/batch/stream line (MarshalLine of a BatchItem),
// both without stats, and `specanalyze -json` (EncodeReport) with stats.
func digestLine(t *testing.T, index int, cp corpusProgram) string {
	rep := corpusReport(t, cp.name, cp.src)
	plain := FromReport(withoutStats(rep))
	resp, err := Marshal(AnalyzeResponse{
		V: Version, Name: cp.name, CacheHit: true, ElapsedNanos: 1234567, Report: plain,
	})
	respSum := sum(t, resp, err)
	line, err := MarshalLine(BatchItem{
		V: Version, Index: index, Name: cp.name, CacheHit: true, ElapsedNanos: 7654321, Report: plain,
	})
	lineSum := sum(t, line, err)
	report, err := EncodeReport(rep)
	return fmt.Sprintf("%s response=%s line=%s report=%s", cp.name, respSum, lineSum, sum(t, report, err))
}

// batchDigestLine renders the digest of a /v1/batch response body holding
// Fig. 2's report and a compile error whose message needs escaping.
func batchDigestLine(t *testing.T) string {
	rep := corpusReport(t, "fig2", bench.Fig2Program(-1))
	body, err := Marshal(&BatchResponse{V: Version, Results: []BatchItem{
		{V: Version, Index: 0, Name: "fig2", ElapsedNanos: 42, Report: FromReport(withoutStats(rep))},
		{V: Version, Index: 1, Name: "bad <job> & co", Error: &Error{
			Code: CodeCompileError, Message: "expected \";\" near \"}\"\tin\u2028main", Line: 3, Col: 17,
		}},
	}})
	return "batch response=" + sum(t, body, err)
}

// TestGoldenWireDigest pins the bytes of the documents that carry a report
// in testdata/golden/wire_digest.txt: one line per corpus program with the
// digests of digestLine, and one for a batch response. Any change to a
// field's order, name, omission, escaping or whitespace shows up as a
// changed line. Under -race or -short only digestCheap's programs are
// analyzed, and their lines are compared against the full golden file.
func TestGoldenWireDigest(t *testing.T) {
	cheap := (raceDetectorOn || testing.Short()) && !*updateGolden
	var lines []string
	for i, cp := range paperCorpus() {
		if cheap && !digestCheap[cp.name] {
			continue
		}
		lines = append(lines, digestLine(t, i, cp))
	}
	lines = append(lines, batchDigestLine(t))
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(digestPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run %s -update`): %v", t.Name(), err)
	}
	if !cheap {
		if got != string(want) {
			t.Errorf("encoding drifted from %s.\n--- got ---\n%s--- want ---\n%s", digestPath, got, want)
		}
		return
	}
	wantByKey := map[string]string{}
	for _, ln := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		wantByKey[strings.Fields(ln)[0]] = ln
	}
	for _, ln := range lines {
		key := strings.Fields(ln)[0]
		if w, ok := wantByKey[key]; !ok {
			t.Errorf("%s has no line in %s", key, digestPath)
		} else if ln != w {
			t.Errorf("%s drifted from %s:\n got %s\nwant %s", key, digestPath, ln, w)
		}
	}
}
