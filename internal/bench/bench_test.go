package bench

import (
	"specabsint/internal/runner"
	"testing"

	"specabsint/internal/core"
	"specabsint/internal/interp"
	"specabsint/internal/machine"
	"specabsint/internal/taint"
)

func TestCorpusComplete(t *testing.T) {
	if n := len(WCETBenchmarks()); n != 10 {
		t.Errorf("WCET set has %d entries, want 10 (Table 3)", n)
	}
	if n := len(CryptoBenchmarks()); n != 10 {
		t.Errorf("crypto set has %d entries, want 10 (Table 4)", n)
	}
	seen := map[string]bool{}
	for _, b := range All() {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.Origin == "" || b.Description == "" {
			t.Errorf("%s: missing provenance metadata", b.Name)
		}
		if b.LoC() < 10 {
			t.Errorf("%s: suspiciously small (%d LoC)", b.Name, b.LoC())
		}
	}
	if _, ok := ByName("adpcm"); !ok {
		t.Error("ByName failed for adpcm")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName found a nonexistent benchmark")
	}
}

func TestWCETBenchmarksCompileAndRun(t *testing.T) {
	for _, b := range WCETBenchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prog, _, err := runner.Compile(b.Code, 0, false)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			st, err := interp.NewMachine(prog).Run(5_000_000)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			_ = st.Ret
			if prog.MemAccessCount() == 0 {
				t.Error("kernel performs no memory accesses")
			}
		})
	}
}

func TestCryptoBenchmarksCompileAndRunWithClient(t *testing.T) {
	for _, b := range CryptoBenchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			src := WithClient(b, 1024)
			prog, _, err := runner.Compile(src, 0, false)
			if err != nil {
				t.Fatalf("compile with client: %v", err)
			}
			if _, err := interp.NewMachine(prog).Run(5_000_000); err != nil {
				t.Fatalf("run: %v", err)
			}
			// The simulator must also execute it with speculation on.
			cfg := machine.DefaultConfig()
			cfg.ForceMispredict = true
			if _, err := machine.RunProgram(prog, cfg); err != nil {
				t.Fatalf("speculative run: %v", err)
			}
		})
	}
}

func TestCryptoKernelsDeclareContract(t *testing.T) {
	for _, b := range CryptoBenchmarks() {
		prog, _, err := runner.Compile(WithClient(b, 64), 0, false)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if prog.SymbolByName("sc_table") == nil {
			t.Errorf("%s: missing sc_table", b.Name)
		}
		key := prog.SymbolByName("sc_key")
		if key == nil || !key.Secret {
			t.Errorf("%s: missing secret sc_key", b.Name)
		}
	}
}

// TestSecretIndexedSplit pins down which kernels perform secret-indexed
// lookups at all — the structural precondition for the Table 7 shape.
func TestSecretIndexedSplit(t *testing.T) {
	wantIndexed := map[string]bool{
		"hash": true, "encoder": true, "chacha20": true, "ocb": true,
		"des": true, "aes": true, "seed": true, "camellia": true,
		"str2key": false, "salsa": false,
	}
	for _, b := range CryptoBenchmarks() {
		prog, _, err := runner.Compile(WithClient(b, 64), 0, false)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		res := taint.Analyze(prog)
		got := len(res.SecretIndexed) > 0
		if got != wantIndexed[b.Name] {
			t.Errorf("%s: secret-indexed accesses = %v, want %v",
				b.Name, got, wantIndexed[b.Name])
		}
	}
}

func TestWCETBenchmarksAnalyzable(t *testing.T) {
	for _, b := range WCETBenchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prog, _, err := runner.Compile(b.Code, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Analyze(prog, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if res.AccessCount() == 0 {
				t.Error("no accesses classified")
			}
			if res.Iterations == 0 {
				t.Error("no fixpoint iterations")
			}
		})
	}
}

func TestFig2ProgramVariants(t *testing.T) {
	sym, _, err := runner.Compile(Fig2Program(-1), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range sym.Symbols {
		if s.Secret {
			found = true
		}
	}
	_ = found // symbolic variant keeps k in a secret register, not memory
	conc, _, err := runner.Compile(Fig2Program(128), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := interp.NewMachine(conc).Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ret != 0 {
		t.Errorf("ph is zero-initialized; got %d", st.Ret)
	}
}

func TestQuantlProgramMatchesPaperValues(t *testing.T) {
	prog, _, err := runner.Compile(QuantlProgram, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// main has params (el, detl) = (0, 0) in the zero-filled interpreter:
	// wd=0 <= decis at mil=0, el >= 0 -> quant26bt_pos[0] = 61.
	st, err := interp.NewMachine(prog).Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ret != 61 {
		t.Errorf("quantl(0,0) = %d, want 61", st.Ret)
	}
}
