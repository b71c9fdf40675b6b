// Command specload is the load generator for specserve: it replays the
// benchmark corpus (internal/bench Tables 3/4 plus the Fig. 2 example)
// against a running daemon at high concurrency and records latency
// percentiles, throughput, error counts and the report-cache hit rate into
// a BENCH_serve.json document.
//
// Usage:
//
//	specload [-addr http://localhost:8723] [-concurrency 32] [-rounds 4]
//	         [-o BENCH_serve.json] [-min-hit-rate 0]
//
// Each round submits the whole corpus once via POST /v1/analyze. Because
// the server's report cache is content-addressed, the first round is all
// misses and subsequent rounds should be (near-)all hits; -min-hit-rate
// makes specload exit nonzero when the observed hit rate over rounds after
// the first falls below the threshold — the CI serve-smoke gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"specabsint/internal/bench"
	"specabsint/internal/experiments"
	"specabsint/internal/serve"
	"specabsint/wire"
)

// request is one unit of load: a named corpus program.
type request struct {
	round int
	name  string
	src   string
}

// sample is one completed request.
type sample struct {
	round    int
	latency  time.Duration
	cacheHit bool
	rejected bool
	failed   bool
}

// roundStats aggregates one corpus pass.
type roundStats struct {
	Round        int     `json:"round"`
	Requests     int     `json:"requests"`
	CacheHits    int     `json:"cache_hits"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	Errors       int     `json:"errors"`
}

// loadReport is the BENCH_serve.json document.
type loadReport struct {
	Meta         experiments.BenchMeta `json:"meta"`
	Addr         string                `json:"addr"`
	Concurrency  int                   `json:"concurrency"`
	Rounds       int                   `json:"rounds"`
	CorpusSize   int                   `json:"corpus_size"`
	Requests     int                   `json:"requests"`
	Completed    int                   `json:"completed"`
	Errors       int                   `json:"errors"`
	Rejected     int                   `json:"rejected_429"`
	CacheHits    int                   `json:"cache_hits"`
	CacheHitRate float64               `json:"cache_hit_rate"`
	// WarmHitRate is the hit rate over every round after the first — the
	// number -min-hit-rate gates on.
	WarmHitRate  float64      `json:"warm_hit_rate"`
	ElapsedNanos int64        `json:"elapsed_nanos"`
	ReqPerSec    float64      `json:"req_per_sec"`
	P50Nanos     int64        `json:"p50_nanos"`
	P90Nanos     int64        `json:"p90_nanos"`
	P99Nanos     int64        `json:"p99_nanos"`
	MaxNanos     int64        `json:"max_nanos"`
	PerRound     []roundStats `json:"per_round"`
	// Server is the daemon's /v1/metrics snapshot after the run: pool
	// counters and both cache tiers.
	Server *wire.Metrics `json:"server,omitempty"`
}

// corpus builds the replay set: every Table 3/4 benchmark (side-channel
// kernels wrapped in the Fig. 10 client) plus the Fig. 2 example.
func corpus() []request {
	var out []request
	for _, b := range bench.All() {
		src := b.Code
		if b.Kind == bench.SideChannel {
			src = bench.WithClient(b, 4096)
		}
		out = append(out, request{name: b.Name, src: src})
	}
	out = append(out, request{name: "fig2", src: bench.Fig2Program(-1)})
	return out
}

// analyze submits one request, retrying 429s with the advertised backoff.
func analyze(client *http.Client, addr string, req request) sample {
	body, err := wire.Marshal(wire.AnalyzeRequest{Name: req.name, Source: req.src})
	if err != nil {
		log.Fatalf("specload: marshal: %v", err)
	}
	start := time.Now()
	var rejected bool
	for {
		resp, err := client.Post(addr+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			return sample{round: req.round, latency: time.Since(start), failed: true}
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return sample{round: req.round, latency: time.Since(start), failed: true}
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected = true
			time.Sleep(serve.RetryAfter(resp.Header, 50*time.Millisecond))
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return sample{round: req.round, latency: time.Since(start), rejected: rejected, failed: true}
		}
		var ar wire.AnalyzeResponse
		if err := wire.Unmarshal(data, &ar); err != nil {
			return sample{round: req.round, latency: time.Since(start), rejected: rejected, failed: true}
		}
		return sample{round: req.round, latency: time.Since(start), cacheHit: ar.CacheHit, rejected: rejected}
	}
}

// fetchMetrics grabs the daemon's post-run snapshot.
func fetchMetrics(client *http.Client, addr string) *wire.Metrics {
	resp, err := client.Get(addr + "/v1/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	var m wire.Metrics
	if err := wire.Unmarshal(data, &m); err != nil {
		return nil
	}
	return &m
}

// percentile reads the q-quantile from sorted latencies.
func percentile(sorted []time.Duration, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx].Nanoseconds()
}

func main() {
	addr := flag.String("addr", "http://localhost:8723", "specserve base URL")
	concurrency := flag.Int("concurrency", 32, "concurrent in-flight requests")
	rounds := flag.Int("rounds", 4, "full corpus passes (round 1 is the cold pass)")
	out := flag.String("o", "BENCH_serve.json", "output path (- for stdout)")
	minHitRate := flag.Float64("min-hit-rate", 0, "exit nonzero when the warm hit rate (rounds after the first) is below this")
	flag.Parse()

	reqs := corpus()
	client := &http.Client{Timeout: 2 * time.Minute}

	// Wait for the daemon to come up (CI starts it in the background).
	ready := false
	for i := 0; i < 100; i++ {
		resp, err := client.Get(*addr + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ready = true
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !ready {
		log.Fatalf("specload: %s not ready", *addr)
	}

	var (
		mu      sync.Mutex
		samples []sample
		done    atomic.Int64
	)
	start := time.Now()
	// Rounds run sequentially so round N+1 sees the cache round N warmed;
	// inside a round the corpus fans out across -concurrency workers.
	for round := 1; round <= *rounds; round++ {
		work := make(chan request)
		var wg sync.WaitGroup
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for req := range work {
					s := analyze(client, *addr, req)
					mu.Lock()
					samples = append(samples, s)
					mu.Unlock()
					done.Add(1)
				}
			}()
		}
		for _, r := range reqs {
			r.round = round
			work <- r
		}
		close(work)
		wg.Wait()
	}
	elapsed := time.Since(start)

	rep := loadReport{
		Meta:         experiments.NewBenchMeta(),
		Addr:         *addr,
		Concurrency:  *concurrency,
		Rounds:       *rounds,
		CorpusSize:   len(reqs),
		Requests:     len(samples),
		ElapsedNanos: elapsed.Nanoseconds(),
		Server:       fetchMetrics(client, *addr),
	}
	perRound := make(map[int]*roundStats)
	var latencies []time.Duration
	var warmReqs, warmHits int
	for _, s := range samples {
		rs := perRound[s.round]
		if rs == nil {
			rs = &roundStats{Round: s.round}
			perRound[s.round] = rs
		}
		rs.Requests++
		if s.failed {
			rep.Errors++
			rs.Errors++
			continue
		}
		rep.Completed++
		latencies = append(latencies, s.latency)
		if s.rejected {
			rep.Rejected++
		}
		if s.cacheHit {
			rep.CacheHits++
			rs.CacheHits++
		}
		if s.round > 1 {
			warmReqs++
			if s.cacheHit {
				warmHits++
			}
		}
	}
	for r := 1; r <= *rounds; r++ {
		if rs := perRound[r]; rs != nil {
			if n := rs.Requests - rs.Errors; n > 0 {
				rs.CacheHitRate = float64(rs.CacheHits) / float64(n)
			}
			rep.PerRound = append(rep.PerRound, *rs)
		}
	}
	if rep.Completed > 0 {
		rep.CacheHitRate = float64(rep.CacheHits) / float64(rep.Completed)
		rep.ReqPerSec = float64(rep.Completed) / elapsed.Seconds()
	}
	if warmReqs > 0 {
		rep.WarmHitRate = float64(warmHits) / float64(warmReqs)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50Nanos = percentile(latencies, 0.50)
	rep.P90Nanos = percentile(latencies, 0.90)
	rep.P99Nanos = percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		rep.MaxNanos = latencies[n-1].Nanoseconds()
	}

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("specload: %v", err)
	}
	doc = append(doc, '\n')
	if *out == "-" {
		os.Stdout.Write(doc)
	} else {
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			log.Fatalf("specload: %v", err)
		}
	}
	fmt.Printf("specload: %d requests (%d rounds x %d programs) in %v — p50 %v p99 %v, hit rate %.1f%% (warm %.1f%%), %d errors\n",
		rep.Requests, *rounds, len(reqs), elapsed.Round(time.Millisecond),
		time.Duration(rep.P50Nanos).Round(time.Microsecond),
		time.Duration(rep.P99Nanos).Round(time.Microsecond),
		100*rep.CacheHitRate, 100*rep.WarmHitRate, rep.Errors)
	if rep.Errors > 0 {
		os.Exit(1)
	}
	if *minHitRate > 0 && rep.WarmHitRate < *minHitRate {
		fmt.Fprintf(os.Stderr, "specload: warm hit rate %.3f below required %.3f\n", rep.WarmHitRate, *minHitRate)
		os.Exit(1)
	}
}
