package wire

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"specabsint"
	"specabsint/internal/bench"
)

// fig2Report analyzes the Fig. 2 example under cfg.
func fig2Report(t *testing.T, cfg specabsint.Config) *specabsint.Report {
	t.Helper()
	prog, err := specabsint.CompileOpts(bench.Fig2Program(-1), cfg.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := specabsint.AnalyzeContext(context.Background(), prog, cfg.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// testConfigs covers the encoding-relevant configuration corners: defaults,
// baseline (no speculation, so no gadgets), stats on, and a small cache that
// actually produces leaks.
func testConfigs() map[string]specabsint.Config {
	tiny := specabsint.DefaultConfig()
	tiny.Cache = specabsint.CacheConfig{LineSize: 64, NumSets: 4, Assoc: 2}
	base := specabsint.DefaultConfig()
	base.Speculative = false
	stats := specabsint.DefaultConfig()
	stats.Stats = true
	return map[string]specabsint.Config{
		"default": specabsint.DefaultConfig(),
		"tiny":    tiny,
		"base":    base,
		"stats":   stats,
	}
}

// TestReportRoundTrip checks FromReport/ToReport are exact inverses and the
// canonical encoding is byte-stable across decode∘encode.
func TestReportRoundTrip(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			rep := fig2Report(t, cfg)

			w := FromReport(rep)
			back, err := w.ToReport()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, back) {
				t.Error("ToReport(FromReport(r)) != r")
			}
			if !reflect.DeepEqual(FromReport(back), w) {
				t.Error("FromReport(ToReport(w)) != w")
			}

			enc1, err := EncodeReport(rep)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeReport(enc1)
			if err != nil {
				t.Fatal(err)
			}
			enc2, err := Marshal(dec)
			if err != nil {
				t.Fatal(err)
			}
			if string(enc1) != string(enc2) {
				t.Errorf("decode∘encode is not byte-stable:\n%s\nvs\n%s", enc1, enc2)
			}
			if enc1[len(enc1)-1] != '\n' {
				t.Error("canonical encoding lacks trailing newline")
			}
			if cfg.Stats && dec.Stats == nil {
				t.Error("stats requested but absent from the wire document")
			}
			if !cfg.Stats && dec.Stats != nil {
				t.Error("stats present despite not being requested")
			}
		})
	}
}

// leakyProgram is a Spectre-v1 shape that the tight single-set cache flags.
const leakyProgram = `
int table[256];
int l1[16]; int l2[16];
char p;
secret int key;
int main() {
	reg int i; reg int tmp;
	tmp = 0;
	for (i = 0; i < 256; i += 16) { tmp = tmp + table[i]; }
	if (p == 0) { tmp = tmp + l1[0]; }
	else { tmp = tmp - l2[0]; }
	return tmp + table[key & 255];
}`

// TestLeakRendered checks that the wire Leak carries the derived human
// rendering and that it matches the API's String exactly.
func TestLeakRendered(t *testing.T) {
	cfg := specabsint.DefaultConfig()
	cfg.Cache = specabsint.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 19}
	prog, err := specabsint.CompileOpts(leakyProgram, cfg.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := specabsint.AnalyzeContext(context.Background(), prog, cfg.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	w := FromReport(rep)
	if len(w.Leaks) == 0 {
		t.Fatal("expected the tight cache to flag leaks")
	}
	for i, l := range w.Leaks {
		if l.Rendered != rep.Leaks[i].String() {
			t.Errorf("leak %d: rendered %q != String %q", i, l.Rendered, rep.Leaks[i].String())
		}
		if !strings.HasPrefix(l.Rendered, "line ") {
			t.Errorf("leak %d: unexpected rendering %q", i, l.Rendered)
		}
	}
	back, err := w.ToReport()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Leaks, rep.Leaks) {
		t.Error("leaks do not round-trip")
	}
}

// TestStrictDecode checks unknown fields and bad versions are rejected.
func TestStrictDecode(t *testing.T) {
	rep := fig2Report(t, specabsint.DefaultConfig())
	enc, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}

	tampered := strings.Replace(string(enc), `"v": 1`, `"v": 1,`+"\n  "+`"bogus": true`, 1)
	if _, err := DecodeReport([]byte(tampered)); err == nil {
		t.Error("unknown field accepted")
	}
	wrongVer := strings.Replace(string(enc), `"v": 1`, `"v": 2`, 1)
	if _, err := DecodeReport([]byte(wrongVer)); err == nil {
		t.Error("wrong version accepted")
	}
	var w Report
	if err := Unmarshal([]byte(`{"v": 1, "misses": "three"}`), &w); err == nil {
		t.Error("type mismatch accepted")
	}
}

// TestOptionsRoundTrip checks FromConfig/Config are exact inverses for every
// test configuration, through the JSON encoding as well.
func TestOptionsRoundTrip(t *testing.T) {
	custom := specabsint.Config{
		Cache:                specabsint.CacheConfig{LineSize: 32, NumSets: 16, Assoc: 4},
		Speculative:          true,
		DepthMiss:            77,
		DepthHit:             7,
		DynamicDepthBounding: false,
		Strategy:             specabsint.PerRollbackBlock,
		RefinedJoin:          true,
		MaxUnroll:            9,
		Passes:               true,
		Stats:                true,
	}
	cfgs := testConfigs()
	cfgs["custom"] = custom
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			o, err := FromConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			back, err := o.Config()
			if err != nil {
				t.Fatal(err)
			}
			if back != cfg {
				t.Errorf("FromConfig(cfg).Config() = %+v, want %+v", back, cfg)
			}

			enc, err := Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			var o2 Options
			if err := Unmarshal(enc, &o2); err != nil {
				t.Fatal(err)
			}
			back2, err := o2.Config()
			if err != nil {
				t.Fatal(err)
			}
			if back2 != cfg {
				t.Errorf("JSON round-trip changed the config: %+v vs %+v", back2, cfg)
			}
		})
	}
}

// TestOptionsDefaults checks that absent options mean the paper defaults.
func TestOptionsDefaults(t *testing.T) {
	var nilOpts *Options
	cfg, err := nilOpts.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg != specabsint.DefaultConfig() {
		t.Errorf("nil Options resolved to %+v, want DefaultConfig", cfg)
	}
	var empty Options
	if cfg, err = empty.Config(); err != nil || cfg != specabsint.DefaultConfig() {
		t.Errorf("empty Options resolved to %+v (err %v), want DefaultConfig", cfg, err)
	}

	one := Options{DepthMiss: ptr(123)}
	cfg, err = one.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := specabsint.DefaultConfig()
	want.DepthMiss = 123
	if cfg != want {
		t.Errorf("single-field Options resolved to %+v, want %+v", cfg, want)
	}

	bad := Options{Strategy: ptr("speculate-harder")}
	if _, err := bad.Config(); err == nil {
		t.Error("unknown strategy accepted")
	}
	badExec := Options{Exec: ptr("jit")}
	if _, err := badExec.Config(); err == nil {
		t.Error("unknown exec engine accepted")
	}
	badSched := Options{Scheduler: ptr("bogus")}
	if _, err := badSched.Config(); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// TestRetiredOptionsAreNoOps pins wire v1 compatibility for the retired
// scheduler, exec and set_parallelism knobs: every value they used to
// accept still decodes and resolves to the configuration without them, and
// FromConfig emits none of them.
func TestRetiredOptionsAreNoOps(t *testing.T) {
	for _, o := range []Options{
		{Scheduler: ptr(SchedulerWTO)},
		{Scheduler: ptr(SchedulerWorklist)},
		{Exec: ptr(ExecCompiled)},
		{Exec: ptr(ExecInterp)},
		{SetParallelism: ptr(0)},
		{SetParallelism: ptr(4)},
		{SetParallelism: ptr(-1)},
		{Scheduler: ptr(SchedulerWorklist), Exec: ptr(ExecInterp), SetParallelism: ptr(4)},
	} {
		cfg, err := o.Config()
		if err != nil || cfg != specabsint.DefaultConfig() {
			t.Errorf("%s/%s/%d resolved to %+v (err %v), want DefaultConfig",
				deref(o.Scheduler), deref(o.Exec), deref(o.SetParallelism), cfg, err)
		}
	}
	var decoded Options
	if err := Unmarshal([]byte(`{"set_parallelism": 4}`), &decoded); err != nil {
		t.Fatalf("set_parallelism no longer decodes: %v", err)
	}
	if cfg, err := decoded.Config(); err != nil || cfg != specabsint.DefaultConfig() {
		t.Errorf(`{"set_parallelism": 4} resolved to %+v (err %v), want DefaultConfig`, cfg, err)
	}
	o, err := FromConfig(specabsint.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if o.Scheduler != nil || o.Exec != nil || o.SetParallelism != nil {
		t.Errorf("FromConfig emitted scheduler=%q exec=%q set_parallelism=%d",
			deref(o.Scheduler), deref(o.Exec), deref(o.SetParallelism))
	}
}

func deref[T any](p *T) T {
	var zero T
	if p == nil {
		return zero
	}
	return *p
}

// TestMarshalLine checks the NDJSON encoding is one line with the same
// field content as the canonical form.
func TestMarshalLine(t *testing.T) {
	rep := fig2Report(t, specabsint.DefaultConfig())
	line, err := MarshalLine(FromReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(line), "\n"); n != 1 || line[len(line)-1] != '\n' {
		t.Fatalf("MarshalLine produced %d newlines, want exactly one trailing", n)
	}
	var w Report
	if err := Unmarshal(line, &w); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&w, FromReport(rep)) {
		t.Error("NDJSON line decodes to a different document")
	}
}
