package specabsint

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"reflect"
	"strings"
	"testing"

	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/machine"
	"specabsint/internal/runner"
)

// simDigestConfigs are the simulator configurations the sim digest replays
// every corpus program under, each built from machine.DefaultConfig().
var simDigestConfigs = []struct {
	name string
	cfg  func() machine.Config
}{
	{"off", func() machine.Config {
		c := machine.DefaultConfig()
		c.DepthMiss, c.DepthHit = 0, 0
		return c
	}},
	{"force20", func() machine.Config {
		c := machine.DefaultConfig()
		c.ForceMispredict = true
		c.DepthMiss, c.DepthHit = 20, 20
		return c
	}},
	{"2bit", machine.DefaultConfig},
	{"gshare8", func() machine.Config {
		c := machine.DefaultConfig()
		c.Predictor = machine.NewGShare(8)
		return c
	}},
	{"adversarial", func() machine.Config {
		c := machine.DefaultConfig()
		c.Predictor = machine.NewAdversarial()
		return c
	}},
	{"icache16", func() machine.Config {
		c := machine.DefaultConfig()
		c.ForceMispredict = true
		c.ICache = &layout.CacheConfig{LineSize: c.Cache.LineSize, NumSets: 1, Assoc: 16}
		return c
	}},
}

// writeRecord feeds h one observed access or fetch, tagged by its kind.
func writeRecord(h hash.Hash, kind byte, r machine.AccessRecord) {
	fmt.Fprintf(h, "%c %d %d %t %t\n", kind, r.InstrID, r.Block, r.Hit, r.Speculative)
}

// simDigestLine simulates one compiled program under one configuration and
// renders every machine.Stats field and the SHA-256 of the ordered access
// and fetch records, or the run's error.
func simDigestLine(t *testing.T, name, config string, prog *ir.Program, cfg machine.Config) string {
	sim, err := machine.New(prog, cfg)
	if err != nil {
		t.Fatalf("%s %s: %v", name, config, err)
	}
	h := sha256.New()
	sim.OnAccess = func(r machine.AccessRecord) { writeRecord(h, 'a', r) }
	sim.OnFetch = func(r machine.AccessRecord) { writeRecord(h, 'f', r) }
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s", name, config)
	if err := sim.Run(); err != nil {
		fmt.Fprintf(&sb, " error=%q", err)
	}
	st := reflect.ValueOf(sim.Stats)
	for i := 0; i < st.NumField(); i++ {
		fmt.Fprintf(&sb, " %s=%d", st.Type().Field(i).Name, st.Field(i).Int())
	}
	fmt.Fprintf(&sb, " trace=%x", h.Sum(nil))
	return sb.String()
}

// TestGoldenSimDigest pins the concrete simulator on the paper corpus in
// testdata/golden/sim_digest.txt: one line per program and configuration of
// simDigestConfigs, holding every machine.Stats field and a digest of every
// data access and instruction fetch in the order the simulator reports
// them. A change to what an instruction computes, which path it runs on,
// when a wrong path stops, or what the caches see shows up as a changed
// line. Under -race or -short only the cheap slice is simulated, and its
// lines are compared against the full golden file.
func TestGoldenSimDigest(t *testing.T) {
	cheap := (raceDetectorOn || testing.Short()) && !*updateGolden
	var lines []string
	for _, cp := range paperCorpus() {
		if cheap && !corpusDigestCheap[cp.name] {
			continue
		}
		prog, _, err := runner.Compile(cp.src, 0, true)
		if err != nil {
			t.Fatalf("%s: %v", cp.name, err)
		}
		for _, c := range simDigestConfigs {
			lines = append(lines, simDigestLine(t, cp.name, c.name, prog, c.cfg()))
		}
	}
	checkDigestLines(t, "sim_digest.txt", lines, cheap)
}
