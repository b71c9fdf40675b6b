package specabsint

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// tightOptions is tightConfig expressed through the functional-options API.
func tightOptions() []Option {
	return []Option{WithCache(CacheConfig{LineSize: 64, NumSets: 1, Assoc: 19})}
}

func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestOptionsMatchConfig checks the two views of the configuration agree:
// a Config rendered back to options (the wire path, Config.Options) must
// produce exactly the report the hand-written option list does.
func TestOptionsMatchConfig(t *testing.T) {
	prog, err := CompileOpts(apiProgram, tightOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	viaOpts, err := AnalyzeContext(context.Background(), prog, tightOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	viaCfg, err := AnalyzeContext(context.Background(), prog, tightConfig().Options()...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportJSON(t, viaOpts), reportJSON(t, viaCfg); got != want {
		t.Errorf("options path diverges from Config path:\n%s\n%s", got, want)
	}
}

// TestConfigOptionsRoundTrip: Options() must reproduce any Config exactly —
// the invariant the wire protocol's option reconstruction rests on.
func TestConfigOptionsRoundTrip(t *testing.T) {
	cfgs := []Config{
		DefaultConfig(),
		tightConfig(),
		{}, // the zero Config: every field must be emitted, not defaulted
		{
			Cache:                CacheConfig{LineSize: 32, NumSets: 8, Assoc: 2},
			Speculative:          true,
			DepthMiss:            7,
			DepthHit:             3,
			DynamicDepthBounding: true,
			Strategy:             PerRollbackBlock,
			RefinedJoin:          true,
			MaxUnroll:            5,
			Passes:               false,
			Stats:                true,
			MitigateVerify:       true,
		},
	}
	for i, cfg := range cfgs {
		if got := newConfig(cfg.Options()); got != cfg {
			t.Errorf("config %d did not round-trip:\ngot  %+v\nwant %+v", i, got, cfg)
		}
	}
}

// TestOptionSetters checks each With* option lands on the right Config field.
func TestOptionSetters(t *testing.T) {
	cfg := newConfig([]Option{
		WithCache(CacheConfig{LineSize: 32, NumSets: 2, Assoc: 4}),
		WithStrategy(PerRollbackBlock),
		WithDepths(100, 10),
		WithRefinedJoin(false),
		WithSpeculation(false),
		WithDynamicDepthBounding(false),
		WithMaxUnroll(17),
		nil, // nil options are ignored
	})
	if cfg.Cache.LineSize != 32 || cfg.Cache.NumSets != 2 || cfg.Cache.Assoc != 4 {
		t.Errorf("cache = %+v", cfg.Cache)
	}
	if cfg.Strategy != PerRollbackBlock || cfg.DepthMiss != 100 || cfg.DepthHit != 10 {
		t.Errorf("strategy/depths = %v/%d/%d", cfg.Strategy, cfg.DepthMiss, cfg.DepthHit)
	}
	if cfg.RefinedJoin || cfg.Speculative || cfg.DynamicDepthBounding || cfg.MaxUnroll != 17 {
		t.Errorf("flags = %+v", cfg)
	}
}

// TestParseErrorPosition checks compile failures expose the exact source
// position through errors.As, across the specabsint error wrap.
func TestParseErrorPosition(t *testing.T) {
	_, err := CompileOpts("int x;\nint main( { return x; }")
	if err == nil {
		t.Fatal("expected a parse error")
	}
	var perr *ParseError
	if !errors.As(err, &perr) {
		t.Fatalf("error %v does not unwrap to *ParseError", err)
	}
	if perr.Line() != 2 || perr.Col() <= 0 {
		t.Errorf("position = %d:%d, want line 2 with a column", perr.Line(), perr.Col())
	}
	if !strings.Contains(err.Error(), "specabsint:") {
		t.Errorf("error lost the package prefix: %v", err)
	}
}

// TestAnalyzeContextCanceled checks a canceled context surfaces as
// ErrCanceled with the context cause preserved.
func TestAnalyzeContextCanceled(t *testing.T) {
	prog, err := CompileOpts(apiProgram)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = AnalyzeContext(ctx, prog, tightOptions()...)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("context cause lost: %v", err)
	}
}

// TestAnalyzeBatchMatchesSerial checks AnalyzeBatch returns, per job, the
// exact report of a serial AnalyzeContext call — including jobs that share
// source (exercising the compile cache) and pre-compiled jobs.
func TestAnalyzeBatchMatchesSerial(t *testing.T) {
	prog, err := CompileOpts(apiProgram, tightOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []BatchJob{
		{Name: "source", Source: apiProgram},
		{Name: "source-again", Source: apiProgram},
		{Name: "precompiled", Prog: prog},
		{Name: "nonspec", Source: apiProgram, Options: []Option{WithSpeculation(false)}},
	}
	results, err := AnalyzeBatch(context.Background(), jobs, tightOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeContext(context.Background(), prog, tightOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := reportJSON(t, want)
	for _, i := range []int{0, 1, 2} {
		if results[i].Err != nil {
			t.Fatalf("%s: %v", results[i].Name, results[i].Err)
		}
		if got := reportJSON(t, results[i].Report); got != wantJSON {
			t.Errorf("%s: batch report diverges from serial", results[i].Name)
		}
	}
	nonspec, err := AnalyzeContext(context.Background(), prog,
		append(tightOptions(), WithSpeculation(false))...)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, results[3].Report); got != reportJSON(t, nonspec) {
		t.Error("per-job option override ignored")
	}
}

// TestAnalyzeBatchPrecompiledStats: a precompiled batch job analyzes its own
// CompiledProgram, compile-time stats included, so under WithStats its
// stats document equals the one AnalyzeContext gives for the same program.
func TestAnalyzeBatchPrecompiledStats(t *testing.T) {
	opts := append(tightOptions(), WithStats(true))
	prog, err := CompileOpts(apiProgram, opts...)
	if err != nil {
		t.Fatal(err)
	}
	render := func(st *Stats) string {
		t.Helper()
		if st == nil {
			t.Fatal("WithStats(true) produced no stats")
		}
		st.ZeroTimes()
		out, err := st.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	want, err := AnalyzeContext(context.Background(), prog, opts...)
	if err != nil {
		t.Fatal(err)
	}
	results, err := AnalyzeBatch(context.Background(), []BatchJob{{Name: "precompiled", Prog: prog}}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(results[0].Report.Stats), render(want.Stats); got != want {
		t.Fatalf("batch stats of a precompiled job:\n%s\nwant AnalyzeContext's:\n%s", got, want)
	}
}

// TestAnalyzeBatchAggregatesFailures checks one bad job fails alone, the
// aggregate is a *BatchError in job order, and errors.As digs through it to
// the underlying *ParseError.
func TestAnalyzeBatchAggregatesFailures(t *testing.T) {
	jobs := []BatchJob{
		{Name: "good", Source: apiProgram},
		{Name: "bad", Source: "int main( {"},
	}
	results, err := AnalyzeBatch(context.Background(), jobs)
	if err == nil {
		t.Fatal("expected a batch error")
	}
	var berr *BatchError
	if !errors.As(err, &berr) {
		t.Fatalf("got %T, want *BatchError", err)
	}
	if len(berr.Failures) != 1 || berr.Failures[0].Index != 1 || berr.Failures[0].Name != "bad" {
		t.Errorf("failures = %+v", berr.Failures)
	}
	var perr *ParseError
	if !errors.As(err, &perr) {
		t.Errorf("batch error does not unwrap to the job's *ParseError: %v", err)
	}
	if results[0].Err != nil || results[0].Report == nil {
		t.Errorf("good job affected by sibling failure: %+v", results[0])
	}
	if results[1].Err == nil || results[1].Report != nil {
		t.Errorf("bad job not reported: %+v", results[1])
	}
}

// TestAnalyzeBatchCanceled checks a canceled batch fails every job with
// ErrCanceled.
func TestAnalyzeBatchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := AnalyzeBatch(ctx, []BatchJob{
		{Name: "a", Source: apiProgram},
		{Name: "b", Source: apiProgram},
	})
	if err == nil {
		t.Fatal("expected a batch error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("got %v, want ErrCanceled", err)
	}
	for _, r := range results {
		if !errors.Is(r.Err, ErrCanceled) {
			t.Errorf("job %s: got %v, want ErrCanceled", r.Name, r.Err)
		}
	}
}

// TestLeaksSortedBySourceLine checks Report.Leaks come back in source order.
func TestLeaksSortedBySourceLine(t *testing.T) {
	// Partially preloading both tables leaves the secret-indexed accesses
	// able to either hit or miss — two leaks on two source lines.
	const twoLeaks = `
int t1[256]; int t2[256];
secret int k;
int main() {
	reg int i; reg int tmp;
	tmp = 0;
	for (i = 0; i < 256; i += 16) { tmp = tmp + t1[i]; tmp = tmp + t2[i]; }
	tmp = tmp + t2[k & 255];
	tmp = tmp + t1[(k >> 4) & 255];
	return tmp;
}`
	prog, err := CompileOpts(twoLeaks)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeContext(context.Background(), prog, tightOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Leaks) < 2 {
		t.Fatalf("want at least two leaks, got %v", rep.Leaks)
	}
	prev := 0
	for _, l := range rep.Leaks {
		if !strings.HasPrefix(l.String(), "line ") {
			t.Errorf("leak %q lost its rendered line prefix", l)
		}
		if l.Line < prev {
			t.Errorf("leaks out of source order: %v", rep.Leaks)
		}
		prev = l.Line
	}
}
