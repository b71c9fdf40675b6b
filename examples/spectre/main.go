// Spectre demonstrates this reproduction's extension beyond the paper: the
// wrong-path out-of-bounds behaviour behind Spectre v1, detected statically
// and exfiltrated concretely.
//
// The gadget is the classic one: a bounds-checked array read whose
// mis-speculated instance reads past the array — straight into the secret
// laid out after it — and a probe-array access indexed by the stolen value,
// which installs a secret-selected cache line that survives the rollback.
//
//	go run ./examples/spectre
package main

import (
	"fmt"
	"log"

	"specabsint/internal/core"
	"specabsint/internal/layout"
	"specabsint/internal/machine"
	"specabsint/internal/runner"
	"specabsint/internal/sidechannel"
)

const gadget = `
int a_len = 16;
int a[16];              // one cache line of public data
secret int secret_val;  // lives on the very next line
int probe[4096];        // 256 lines: one per possible secret byte
int x = 16;             // attacker-chosen index: one past the end
int main() {
	reg int y;
	if (x < a_len) {              // the bounds check
		y = a[x];                 // wrong-path instance reads secret_val
		return probe[(y & 255) * 16]; // transmits y through the cache
	}
	return 0;
}`

func main() {
	prog, _, err := runner.Compile(gadget, 0, false)
	if err != nil {
		log.Fatal(err)
	}

	// --- Static detection -------------------------------------------------
	rep, err := sidechannel.Analyze(prog, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("static analysis:")
	fmt.Printf("  architectural timing leaks: %d (the secret never flows into an architectural address)\n",
		len(rep.Leaks))
	fmt.Printf("  speculative transmission gadgets: %d\n", len(rep.SpectreLeaks))
	for _, l := range rep.SpectreLeaks {
		fmt.Printf("    GADGET %s\n", l)
	}

	// --- Concrete exfiltration --------------------------------------------
	fmt.Println("\nconcrete attack (mis-speculated bounds check, then prime-and-probe):")
	for _, secret := range []int64{7, 42, 200} {
		prog.SymbolByName("secret_val").Init = []int64{secret}
		cfg := machine.DefaultConfig()
		cfg.ForceMispredict = true
		sim, err := machine.New(prog, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.Run(); err != nil {
			log.Fatal(err)
		}
		probe := prog.SymbolByName("probe")
		first, n := sim.Layout.BlockRange(probe.ID)
		recovered := -1
		for v := 0; v < n; v++ {
			if sim.Cache.Contains(first + layout.BlockID(v)) {
				recovered = v
				break
			}
		}
		fmt.Printf("  secret_val = %3d  ->  probe line cached: %3d  (architectural result: %d)\n",
			secret, recovered, sim.Stats.Ret)
	}
	fmt.Println("\nThe architectural result is always 0 — the bounds check 'works' — yet")
	fmt.Println("the cache names the secret. The speculation-aware analysis flags the")
	fmt.Println("probe access; masking the index (y = a[x & 15]) removes the gadget.")
}
