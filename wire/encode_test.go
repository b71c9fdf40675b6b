package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"specabsint"
	"specabsint/internal/bench"
)

// fuzzDocs builds each document that carries a report from fuzzed fields.
// Each bit of shape picks one variant: nil, empty or filled slices; a nil
// or set stats section, report and error; and the optional bools.
func fuzzDocs(name, sym, class, text string, a, b int64, shape uint16) []any {
	bit := func(i uint) bool { return shape&(1<<i) != 0 }
	slice := func(i uint, filled []Access) []Access {
		switch {
		case bit(i):
			return filled
		case bit(i + 1):
			return []Access{}
		}
		return nil
	}
	leaks := func(i uint) []Leak {
		switch {
		case bit(i):
			return []Leak{{Line: int(a), Symbol: sym, Store: bit(12), Class: class, Rendered: text}, {Line: int(b), Class: text}}
		case bit(i + 1):
			return []Leak{}
		}
		return nil
	}
	r := &Report{
		V: int(a),
		Accesses: slice(0, []Access{
			{Line: int(a), Store: bit(12), Symbol: sym, Class: class, SpecClass: text, SpecReached: bit(13)},
			{Line: int(b), Symbol: name, Class: text},
			{Line: math.MinInt, Store: true, Symbol: text, Class: sym, SpecReached: true},
		}),
		Misses:     int(b),
		SpecMisses: math.MaxInt,
		Branches:   -int(a),
		Iterations: 0,
		WCET: WCET{
			Accesses: int(a), AlwaysHits: int(b), Unknown: -1,
			WorstCaseCycles: math.MinInt64, SpecExtraCycles: b,
		},
		Leaks:          leaks(2),
		LeakDetected:   bit(14),
		SpectreGadgets: leaks(4),
	}
	if bit(6) {
		r.Stats = &specabsint.Stats{
			Program:  specabsint.ProgramStats{Blocks: int(a), Instrs: int(b)},
			Fixpoint: specabsint.FixpointStats{Iterations: a, Joins: b},
			Phases:   []specabsint.PhaseStat{{Name: name, Nanos: b}, {Name: text}},
		}
		if bit(7) {
			r.Stats.Passes = []specabsint.PassStat{{Name: sym, Changed: int(a)}}
		}
	}
	var report *Report
	if bit(8) {
		report = r
	}
	var failure *Error
	if bit(9) {
		failure = &Error{Code: class, Message: text, Line: int(a), Col: int(b)}
	}
	resp := AnalyzeResponse{V: Version, Name: name, CacheHit: bit(13), ElapsedNanos: b, Report: report}
	item := BatchItem{V: Version, Index: int(a), Name: name, CacheHit: bit(15), ElapsedNanos: a, Report: report, Error: failure}
	batch := BatchResponse{V: int(b)}
	switch {
	case bit(10):
		batch.Results = []BatchItem{item, {V: Version, Index: int(b), Name: sym, Error: failure}, {Report: r}}
	case bit(11):
		batch.Results = []BatchItem{}
	}
	return []any{r, *r, &resp, resp, &item, item, &batch, batch}
}

// FuzzMarshalReport checks Marshal and MarshalLine against encoding/json on
// every document that carries a report, by value and by pointer: the bytes
// must equal json.MarshalIndent(doc, "", "  ") and json.Marshal(doc), each
// with a trailing newline, and the counting pass that sizes the buffer must
// not overshoot them.
func FuzzMarshalReport(f *testing.F) {
	f.Add("fig2", "ph", "always-hit", "line 12: ph[k] unknown", int64(12), int64(3), uint16(0xffff))
	f.Add("", "", "", "", int64(0), int64(0), uint16(0))
	f.Add("a<b>&c", "\x00\x1f\t\n\r", "  ", "\xff\xfe\xc3", int64(math.MinInt64), int64(math.MaxInt64), uint16(0x5555))
	f.Add("\"quote\\slash\"", "\x7fé", "unknown", "<script>", int64(-1), int64(-10), uint16(0xaaaa))
	f.Add("name", "sym", "always-miss", "\U0001f600 �", int64(9), int64(10), uint16(0x07c1))
	f.Fuzz(func(t *testing.T, name, sym, class, text string, a, b int64, shape uint16) {
		for _, doc := range fuzzDocs(name, sym, class, text, a, b, shape) {
			checkEncoding(t, doc)
		}
	})
}

// checkEncoding compares Marshal and MarshalLine of doc with encoding/json
// and checks the size of the counting pass.
func checkEncoding(t *testing.T, doc any) {
	t.Helper()
	want, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantLine, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	gotLine, err := MarshalLine(doc)
	if err != nil {
		t.Fatal(err)
	}
	if i := mismatch(got, append(want, '\n')); i >= 0 {
		t.Errorf("Marshal(%T) differs from json.MarshalIndent at byte %d:\n got %q\nwant %q", doc, i, around(got, i), around(want, i))
	}
	if i := mismatch(gotLine, append(wantLine, '\n')); i >= 0 {
		t.Errorf("MarshalLine(%T) differs from json.Marshal at byte %d:\n got %q\nwant %q", doc, i, around(gotLine, i), around(wantLine, i))
	}
	for _, enc := range []struct {
		indent bool
		n      int
	}{{true, len(want)}, {false, len(wantLine)}} {
		size := encoder{indent: enc.indent, count: true}
		size.doc(doc)
		if size.n > enc.n {
			t.Errorf("%T (indent %v): counting pass sized %d bytes for an encoding of %d", doc, enc.indent, size.n, enc.n)
		}
	}
}

// mismatch returns the offset of the first byte where a and b differ, or -1
// when they are equal.
func mismatch(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// around returns the bytes of b near offset i.
func around(b []byte, i int) []byte {
	return b[max(0, i-40):min(len(b), i+40)]
}

// TestMarshalNilDocuments checks a nil pointer to a document that carries a
// report encodes as encoding/json encodes it.
func TestMarshalNilDocuments(t *testing.T) {
	for _, doc := range []any{(*Report)(nil), (*AnalyzeResponse)(nil), (*BatchItem)(nil), (*BatchResponse)(nil)} {
		got, err := Marshal(doc)
		if err != nil || string(got) != "null\n" {
			t.Errorf("Marshal(%T nil) = %q, %v; want null", doc, got, err)
		}
	}
}

// TestEncodedLenExact checks that the counting pass sizes the buffer of a
// corpus document exactly when it has no stats section and no string to
// escape, so the writer never grows it, and short of it with stats.
func TestEncodedLenExact(t *testing.T) {
	for _, cp := range paperCorpus() {
		if !digestCheap[cp.name] {
			continue
		}
		rep := corpusReport(t, cp.name, cp.src)
		plain := FromReport(withoutStats(rep))
		for _, tc := range []struct {
			doc   any
			exact bool
		}{
			{&AnalyzeResponse{V: Version, Name: cp.name, CacheHit: true, ElapsedNanos: 1234567, Report: plain}, true},
			{&BatchItem{V: Version, Index: 3, Name: cp.name, ElapsedNanos: 7, Report: plain}, true},
			{FromReport(rep), false},
		} {
			for _, indent := range []bool{true, false} {
				size := encoder{indent: indent, count: true}
				size.doc(tc.doc)
				out, _, err := encodeDoc(tc.doc, indent)
				if err != nil {
					t.Fatal(err)
				}
				if n := len(out) - 1; tc.exact && size.n != n || !tc.exact && size.n >= n {
					t.Errorf("%s %T (indent %v): counting pass sized %d bytes for an encoding of %d", cp.name, tc.doc, indent, size.n, n)
				}
			}
		}
	}
}

// marshalSink keeps the benchmark's encodings live.
var marshalSink []byte

// BenchmarkMarshalResponse measures encoding a /v1/analyze response body,
// which is most of what a report-cache hit costs the server, for a small,
// a medium and the largest corpus report.
func BenchmarkMarshalResponse(b *testing.B) {
	for _, name := range []string{"fig2", "stc", "susan"} {
		src := bench.Fig2Program(-1)
		if name != "fig2" {
			k, ok := bench.ByName(name)
			if !ok {
				b.Fatalf("kernel %q not in corpus", name)
			}
			src = k.Code
		}
		resp := AnalyzeResponse{V: Version, Name: name, Report: FromReport(withoutStats(corpusReport(b, name, src)))}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := Marshal(resp)
				if err != nil {
					b.Fatal(err)
				}
				marshalSink = out
			}
		})
	}
}
