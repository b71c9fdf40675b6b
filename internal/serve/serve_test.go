package serve

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"specabsint"
	"specabsint/internal/bench"
	"specabsint/internal/obs"
	"specabsint/wire"
)

// newTestServer stands up a serve.Server over a fresh Service.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Service == nil {
		cfg.Service = specabsint.NewService(specabsint.ServiceConfig{Workers: 2})
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// post sends a canonical wire body and returns status + raw response.
func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	enc, err := wire.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// get fetches and returns status + raw response.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// decodeErr parses an error envelope.
func decodeErr(t *testing.T, data []byte) *wire.Error {
	t.Helper()
	var er wire.ErrorResponse
	if err := wire.Unmarshal(data, &er); err != nil {
		t.Fatalf("undecodable error envelope: %v\n%s", err, data)
	}
	if er.V != wire.Version || er.Error == nil {
		t.Fatalf("malformed error envelope: %s", data)
	}
	return er.Error
}

// TestAnalyzeMatchesDirect checks the served report is byte-identical (in
// wire form) to a direct CompileOpts+AnalyzeContext run, and that an
// identical resubmit is a report-cache hit with the same bytes.
func TestAnalyzeMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := bench.Fig2Program(-1)
	stats := true
	req := wire.AnalyzeRequest{Name: "fig2", Source: src, Options: &wire.Options{Stats: &stats}}

	status, data := post(t, ts.URL+"/v1/analyze", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var cold wire.AnalyzeResponse
	if err := wire.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.V != wire.Version || cold.Name != "fig2" || cold.CacheHit {
		t.Fatalf("cold response: v=%d name=%q cacheHit=%v", cold.V, cold.Name, cold.CacheHit)
	}

	cfg, err := req.Options.Config()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := specabsint.CompileOpts(src, cfg.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := specabsint.AnalyzeContext(context.Background(), prog, cfg.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock fields differ run to run; compare with times zeroed.
	servedRep, err := cold.Report.ToReport()
	if err != nil {
		t.Fatal(err)
	}
	servedRep.Stats = servedRep.Stats.ZeroTimes()
	direct.Stats = direct.Stats.ZeroTimes()
	servedBytes, err := wire.EncodeReport(servedRep)
	if err != nil {
		t.Fatal(err)
	}
	directBytes, err := wire.EncodeReport(direct)
	if err != nil {
		t.Fatal(err)
	}
	if string(servedBytes) != string(directBytes) {
		t.Errorf("served report differs from direct analysis:\n%s\nvs\n%s", servedBytes, directBytes)
	}

	// Identical resubmit: report-cache hit, same report bytes.
	status, data = post(t, ts.URL+"/v1/analyze", req)
	if status != http.StatusOK {
		t.Fatalf("warm status %d: %s", status, data)
	}
	var warm wire.AnalyzeResponse
	if err := wire.Unmarshal(data, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("identical resubmit was not a cache hit")
	}
	warmRep, err := warm.Report.ToReport()
	if err != nil {
		t.Fatal(err)
	}
	warmRep.Stats = warmRep.Stats.ZeroTimes()
	warmBytes, err := wire.EncodeReport(warmRep)
	if err != nil {
		t.Fatal(err)
	}
	if string(warmBytes) != string(servedBytes) {
		t.Error("cached report differs from the cold run")
	}
}

// TestServedStatsValidate checks the stats section of a served response
// passes the pinned schema.
func TestServedStatsValidate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	stats := true
	status, data := post(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{
		Source: bench.Fig2Program(-1), Options: &wire.Options{Stats: &stats},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var resp wire.AnalyzeResponse
	if err := wire.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Report == nil || resp.Report.Stats == nil {
		t.Fatal("no stats in served report")
	}
	doc, err := resp.Report.Stats.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateStats(doc); err != nil {
		t.Errorf("served stats document fails the schema: %v", err)
	}
}

// TestBatchOrderAndErrors checks /v1/batch returns results in job order with
// per-job failures isolated as structured errors.
func TestBatchOrderAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := wire.BatchRequest{Jobs: []wire.BatchJob{
		{Name: "ok1", Source: bench.Fig2Program(1)},
		{Name: "broken", Source: "int main() { return oops; }"},
		{Name: "ok2", Source: bench.Fig2Program(2)},
	}}
	status, data := post(t, ts.URL+"/v1/batch", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var resp wire.BatchResponse
	if err := wire.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	for i, item := range resp.Results {
		if item.Index != i || item.Name != req.Jobs[i].Name {
			t.Errorf("result %d: index %d name %q", i, item.Index, item.Name)
		}
	}
	if resp.Results[0].Report == nil || resp.Results[2].Report == nil {
		t.Error("successful jobs missing reports")
	}
	e := resp.Results[1].Error
	if e == nil || e.Code != wire.CodeCompileError {
		t.Fatalf("broken job error = %+v, want code %s", e, wire.CodeCompileError)
	}
	if e.Line <= 0 {
		t.Errorf("compile error lacks a line: %+v", e)
	}
	if resp.Results[1].Report != nil {
		t.Error("failed job carries a report")
	}
}

// TestBatchStream checks the NDJSON endpoint delivers one parseable line per
// job, covering every index exactly once.
func TestBatchStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 6
	req := wire.BatchRequest{}
	for i := 0; i < n; i++ {
		req.Jobs = append(req.Jobs, wire.BatchJob{Name: "j", Source: bench.Fig2Program(i)})
	}
	enc, err := wire.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch/stream", "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	seen := map[int]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var item wire.BatchItem
		if err := wire.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Text())
		}
		if item.V != wire.Version || item.Error != nil || item.Report == nil {
			t.Errorf("item %d: v=%d err=%+v", item.Index, item.V, item.Error)
		}
		if seen[item.Index] {
			t.Errorf("index %d delivered twice", item.Index)
		}
		seen[item.Index] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Errorf("got %d items, want %d", len(seen), n)
	}
}

// TestBatchStreamTimeout checks a stream yields one line per job even when
// the deadline stops every job before it starts: each is a timeout item, as
// in /v1/batch.
func TestBatchStreamTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	const n = 3
	req := wire.BatchRequest{}
	for i := 0; i < n; i++ {
		req.Jobs = append(req.Jobs, wire.BatchJob{Name: "j", Source: bench.Fig2Program(i)})
	}
	status, data := post(t, ts.URL+"/v1/batch/stream", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != n {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), n, data)
	}
	for _, line := range lines {
		var item wire.BatchItem
		if err := wire.Unmarshal(line, &item); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, line)
		}
		if item.Error == nil || item.Error.Code != wire.CodeTimeout {
			t.Errorf("item %d: error %+v, want code %q", item.Index, item.Error, wire.CodeTimeout)
		}
	}
}

// TestBadRequests checks the 400/422 paths return structured errors.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
	if e := decodeErr(t, data); e.Code != wire.CodeBadRequest {
		t.Errorf("malformed JSON: code %q", e.Code)
	}

	status, data := post(t, ts.URL+"/v1/analyze", map[string]any{"source": "int main() { return 0; }", "bogus": 1})
	if status != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", status)
	}
	if e := decodeErr(t, data); e.Code != wire.CodeBadRequest {
		t.Errorf("unknown field: code %q", e.Code)
	}

	status, data = post(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{})
	if status != http.StatusBadRequest {
		t.Errorf("missing source: status %d", status)
	}
	decodeErr(t, data)

	status, data = post(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{V: 99, Source: "int main() { return 0; }"})
	if status != http.StatusBadRequest {
		t.Errorf("wrong version: status %d", status)
	}
	decodeErr(t, data)

	bad := "definitely-not-a-strategy"
	status, data = post(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{
		Source: "int main() { return 0; }", Options: &wire.Options{Strategy: &bad},
	})
	if status != http.StatusBadRequest {
		t.Errorf("bad strategy: status %d", status)
	}
	decodeErr(t, data)

	// A geometry the analysis cannot model is a bad option, for a request
	// and for one job of a batch: a 48-byte line used to fail inside the
	// analysis as 500 internal, and 65540 ways wrapped to 4 in the 16-bit
	// cache ages and answered 200.
	for _, geom := range []wire.CacheGeometry{
		{LineSize: 48, NumSets: 1, Assoc: 512},
		{LineSize: 64, NumSets: 1, Assoc: 65540},
	} {
		opts := &wire.Options{Cache: &geom}
		status, data = post(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: "int main() { return 0; }", Options: opts})
		if status != http.StatusBadRequest {
			t.Errorf("cache %+v: status %d: %s", geom, status, data)
		} else if e := decodeErr(t, data); e.Code != wire.CodeBadRequest {
			t.Errorf("cache %+v: code %q", geom, e.Code)
		}
		status, data = post(t, ts.URL+"/v1/batch", wire.BatchRequest{Jobs: []wire.BatchJob{
			{Name: "good", Source: "int main() { return 0; }"},
			{Name: "bad", Source: "int main() { return 0; }", Options: opts},
		}})
		if status != http.StatusBadRequest {
			t.Errorf("batch job with cache %+v: status %d: %s", geom, status, data)
		} else if e := decodeErr(t, data); e.Code != wire.CodeBadRequest || !strings.HasPrefix(e.Message, "job 1 (bad): ") {
			t.Errorf("batch job with cache %+v: %+v", geom, e)
		}
	}

	// Speculation depths the analysis rejects are bad options too: a
	// negative depth and depth_hit above depth_miss used to fail inside the
	// analysis as 500 internal, and as a 200 batch with an internal item.
	depth := func(v int) *int { return &v }
	for _, tc := range []struct {
		name string
		opts *wire.Options
	}{
		{"depth_miss -1", &wire.Options{DepthMiss: depth(-1)}},
		{"depth_miss 5, depth_hit 9", &wire.Options{DepthMiss: depth(5), DepthHit: depth(9)}},
	} {
		status, data = post(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: "int main() { return 0; }", Options: tc.opts})
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", tc.name, status, data)
		} else if e := decodeErr(t, data); e.Code != wire.CodeBadRequest {
			t.Errorf("%s: code %q", tc.name, e.Code)
		}
	}
	status, data = post(t, ts.URL+"/v1/batch", wire.BatchRequest{Jobs: []wire.BatchJob{
		{Name: "good", Source: "int main() { return 0; }"},
		{Name: "bad", Source: "int main() { return 0; }", Options: &wire.Options{DepthHit: depth(-3)}},
	}})
	if status != http.StatusBadRequest {
		t.Errorf("batch job with depth_hit -3: status %d: %s", status, data)
	} else if e := decodeErr(t, data); e.Code != wire.CodeBadRequest || !strings.HasPrefix(e.Message, "job 1 (bad): ") {
		t.Errorf("batch job with depth_hit -3: %+v", e)
	}

	status, data = post(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: "int main() { return oops; }"})
	if status != http.StatusUnprocessableEntity {
		t.Errorf("compile error: status %d", status)
	}
	if e := decodeErr(t, data); e.Code != wire.CodeCompileError || e.Line <= 0 {
		t.Errorf("compile error: %+v", e)
	}

	status, data = post(t, ts.URL+"/v1/batch", wire.BatchRequest{})
	if status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", status)
	}
	decodeErr(t, data)
}

// TestRequestLimits checks the request limits at their edges: a body of
// MaxBodyBytes is read, one byte more is a bad request, and so is a batch
// of MaxBatchJobs+1 jobs.
func TestRequestLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A valid request padded with whitespace before its closing brace.
	body := func(size int) []byte {
		b := bytes.Repeat([]byte(" "), size)
		copy(b, `{"source":"int main() { return 0; }"`)
		b[size-1] = '}'
		return b
	}
	for _, tc := range []struct {
		size int
		want int
	}{
		{MaxBodyBytes, http.StatusOK},
		{MaxBodyBytes + 1, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body(tc.size)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%d-byte body: status %d, want %d: %s", tc.size, resp.StatusCode, tc.want, data)
		}
		if tc.want == http.StatusBadRequest {
			if e := decodeErr(t, data); e.Code != wire.CodeBadRequest {
				t.Errorf("%d-byte body: code %q", tc.size, e.Code)
			}
		}
	}

	req := wire.BatchRequest{Jobs: make([]wire.BatchJob, MaxBatchJobs+1)}
	for i := range req.Jobs {
		req.Jobs[i].Source = "int main() { return 0; }"
	}
	status, data := post(t, ts.URL+"/v1/batch", req)
	if status != http.StatusBadRequest {
		t.Fatalf("batch of %d jobs: status %d, want 400: %s", len(req.Jobs), status, data)
	}
	if e := decodeErr(t, data); e.Code != wire.CodeBadRequest {
		t.Errorf("batch of %d jobs: code %q", len(req.Jobs), e.Code)
	}
}

// TestRetiredOptionsAreNoOps pins wire v1 compatibility: a request that
// still carries the retired scheduler, exec and set_parallelism options gets
// a report byte-identical to one without them, and on one server it is
// answered from the report-cache entry the request without them filled. An
// unknown scheduler or exec is still rejected, on a request and on a batch
// job. layer3 runs on a 64-set × 8-way
// cache, the geometry on which a set_parallelism that reached the engine
// would change the reported iteration count.
func TestRetiredOptionsAreNoOps(t *testing.T) {
	layer3, ok := bench.ByName("layer3")
	if !ok {
		t.Fatal("layer3 not in corpus")
	}
	worklist, interp, four := wire.SchedulerWorklist, wire.ExecInterp, 4
	for _, tc := range []struct {
		name  string
		src   string
		cache *wire.CacheGeometry
	}{
		{"fig2", bench.Fig2Program(-1), nil},
		{"layer3-64x8", layer3.Code, &wire.CacheGeometry{LineSize: 64, NumSets: 64, Assoc: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			report := func(url string, opts *wire.Options, wantHit bool) []byte {
				t.Helper()
				status, data := post(t, url+"/v1/analyze", wire.AnalyzeRequest{Source: tc.src, Options: opts})
				if status != http.StatusOK {
					t.Fatalf("status %d: %s", status, data)
				}
				var resp wire.AnalyzeResponse
				if err := wire.Unmarshal(data, &resp); err != nil {
					t.Fatal(err)
				}
				if resp.CacheHit != wantHit {
					t.Fatalf("cache hit %v, want %v", resp.CacheHit, wantHit)
				}
				out, err := wire.Marshal(resp.Report)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			fresh := func() string {
				_, ts := newTestServer(t, Config{})
				return ts.URL
			}
			plain := &wire.Options{Cache: tc.cache}
			retired := &wire.Options{Cache: tc.cache, Scheduler: &worklist, Exec: &interp, SetParallelism: &four}

			// On fresh servers both requests run their own analysis.
			want := report(fresh(), plain, false)
			if got := report(fresh(), retired, false); !bytes.Equal(got, want) {
				t.Errorf("retired options changed the report:\n%s\nvs\n%s", got, want)
			}
			// On one server they address the same report-cache entry.
			shared := fresh()
			report(shared, plain, false)
			if got := report(shared, retired, true); !bytes.Equal(got, want) {
				t.Errorf("cached report differs:\n%s\nvs\n%s", got, want)
			}
		})
	}

	_, ts := newTestServer(t, Config{})
	bogus := "bogus"
	status, data := post(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{
		Source: "int main() { return 0; }", Options: &wire.Options{Scheduler: &bogus},
	})
	if status != http.StatusBadRequest {
		t.Errorf("scheduler=bogus: status %d", status)
	}
	decodeErr(t, data)

	// A batch job's own options are validated whether or not the batch sets
	// options of its own: the job's fields overlay the batch's, all of them.
	spec := true
	for _, jobOpts := range []*wire.Options{{Scheduler: &bogus}, {Exec: &bogus}} {
		for _, batchOpts := range []*wire.Options{nil, {Speculative: &spec}} {
			status, data = post(t, ts.URL+"/v1/batch", wire.BatchRequest{Options: batchOpts, Jobs: []wire.BatchJob{
				{Name: "good", Source: "int main() { return 0; }"},
				{Name: "bad", Source: "int main() { return 0; }", Options: jobOpts},
			}})
			if status != http.StatusBadRequest {
				t.Errorf("job options %+v under batch options %+v: status %d: %s", *jobOpts, batchOpts, status, data)
			} else if e := decodeErr(t, data); e.Code != wire.CodeBadRequest || !strings.HasPrefix(e.Message, "job 1 (bad): ") {
				t.Errorf("job options %+v under batch options %+v: %+v", *jobOpts, batchOpts, e)
			}
		}
	}
}

// TestAdmissionControl checks a request whose job count exceeds the queue
// bound is rejected with 429 and a Retry-After hint.
func TestAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueBound: 2})
	req := wire.BatchRequest{Jobs: []wire.BatchJob{
		{Source: bench.Fig2Program(1)},
		{Source: bench.Fig2Program(2)},
		{Source: bench.Fig2Program(3)},
	}}
	enc, err := wire.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if e := decodeErr(t, data); e.Code != wire.CodeOverloaded {
		t.Errorf("code %q", e.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := RetryAfter(resp.Header, 0); got <= 0 {
		t.Errorf("RetryAfter = %v", got)
	}

	// A fitting request still goes through.
	status, data := post(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: bench.Fig2Program(1)})
	if status != http.StatusOK {
		t.Errorf("fitting request rejected: %d %s", status, data)
	}
}

// TestDrainLifecycle checks readiness flips on BeginDrain, draining requests
// are refused with 503, and Drain completes.
func TestDrainLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	status, data := get(t, ts.URL+"/v1/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: %d", status)
	}
	var h wire.HealthResponse
	if err := wire.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.St != "serving" {
		t.Errorf("health = %+v", h)
	}

	srv.BeginDrain()
	status, data = get(t, ts.URL+"/v1/healthz")
	if status != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: %d", status)
	}
	if err := wire.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.OK || h.St != "draining" {
		t.Errorf("draining health = %+v", h)
	}

	status, data = post(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: bench.Fig2Program(1)})
	if status != http.StatusServiceUnavailable {
		t.Errorf("draining analyze: %d", status)
	}
	if e := decodeErr(t, data); e.Code != wire.CodeDraining {
		t.Errorf("draining code %q", e.Code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestMetrics checks /v1/metrics reflects traffic, including report-cache
// hits for an identical resubmit.
func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueBound: 7})
	req := wire.AnalyzeRequest{Source: bench.Fig2Program(-1)}
	for i := 0; i < 2; i++ {
		if status, data := post(t, ts.URL+"/v1/analyze", req); status != http.StatusOK {
			t.Fatalf("analyze %d: %d %s", i, status, data)
		}
	}
	status, data := get(t, ts.URL+"/v1/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	var m wire.Metrics
	if err := wire.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.V != wire.Version {
		t.Errorf("metrics version %d", m.V)
	}
	if m.Server.Requests != 2 || m.Server.Rejected != 0 || m.Server.InFlight != 0 {
		t.Errorf("server metrics: %+v", m.Server)
	}
	if m.Server.QueueBound != 7 {
		t.Errorf("queue bound %d", m.Server.QueueBound)
	}
	if m.Pool.ReportCacheHits != 1 || m.Pool.ReportCacheMisses != 1 {
		t.Errorf("report cache: %d hits %d misses, want 1/1", m.Pool.ReportCacheHits, m.Pool.ReportCacheMisses)
	}
	if m.Pool.ReportCacheSize != 1 {
		t.Errorf("report cache size %d", m.Pool.ReportCacheSize)
	}
}

// TestRequestTimeout checks a deadline-bound analysis returns 504.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	status, data := post(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Source: bench.Fig2Program(-1)})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", status, data)
	}
	if e := decodeErr(t, data); e.Code != wire.CodeTimeout {
		t.Errorf("code %q", e.Code)
	}
}
