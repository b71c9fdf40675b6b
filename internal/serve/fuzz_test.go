package serve

import (
	"testing"

	"specabsint"
	"specabsint/wire"
)

// FuzzDecodeRequest feeds arbitrary bytes through the request decoding the
// handlers do: strict decoding as an analyze and as a batch request, the
// version check, and the resolution of each job's options, batch-level
// options merged with the job's. Nothing may panic. Whenever options
// resolve, the resolved cache must pass Validate, and the configuration
// must come back unchanged from wire.FromConfig and Config.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		// docs/API.md's /v1/analyze example.
		`{"name": "spectre-v1", "source": "int t[256]; secret int k; int main() { return t[k & 255]; }", "options": {"cache": {"line_size": 64, "num_sets": 1, "assoc": 19}, "stats": true}}`,
		`{"source": "int main() { return 0; }", "bogus": 1}`,
		`{"source": "int main() { return 0; }", "options": {"scheduler": "fifo"}}`,
		`{"source": "int main() { return 0; }", "options": {"cache": {"line_size": 48, "num_sets": 1, "assoc": 512}}}`,
		`{"source": "int main() { return 0; }", "options": {"cache": {"line_size": 64, "num_sets": 1, "assoc": 65540}}}`,
		`{"v": 1, "options": {"strategy": "partition"}, "jobs": [{"name": "a", "source": "int main() { return 0; }"}, {"source": "int main() { return 1; }", "options": {"cache": {"line_size": 64, "num_sets": 64, "assoc": 8}}}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req wire.AnalyzeRequest
		if wire.Unmarshal(data, &req) == nil && checkVersion(req.V) == nil {
			checkJobOptions(t, req.Options, nil)
		}
		var batch wire.BatchRequest
		if wire.Unmarshal(data, &batch) == nil && checkVersion(batch.V) == nil {
			for _, j := range batch.Jobs {
				checkJobOptions(t, batch.Options, j.Options)
			}
		}
	})
}

// checkJobOptions resolves one job's options as the handlers do and checks
// the configuration they resolve to.
func checkJobOptions(t *testing.T, batch, job *wire.Options) {
	t.Helper()
	opts, e := jobOptions(batch, job)
	if e != nil {
		if e.Code != wire.CodeBadRequest {
			t.Fatalf("options rejected with code %q: %s", e.Code, e.Message)
		}
		return
	}
	cfg := specabsint.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.Cache.Validate(); err != nil {
		t.Fatalf("options resolve to a cache the analysis rejects: %v", err)
	}
	doc, err := wire.FromConfig(cfg)
	if err != nil {
		t.Fatalf("FromConfig(%+v): %v", cfg, err)
	}
	back, err := doc.Config()
	if err != nil {
		t.Fatalf("FromConfig(%+v).Config(): %v", cfg, err)
	}
	if back != cfg {
		t.Fatalf("FromConfig(cfg).Config() = %+v, want %+v", back, cfg)
	}
}
