// Package serve is the HTTP layer of cmd/specserve: the v1 analysis service
// over a shared specabsint.Service (worker pool + two-tier content-addressed
// cache). The package holds everything testable about the daemon — routing,
// the wire contract at the boundary, admission control, per-request
// deadlines, drain semantics — so cmd/specserve is a thin flag-parsing main.
//
// Endpoints (bodies documented in docs/API.md, shapes frozen in
// specabsint/wire):
//
//	POST /v1/analyze       one source + options -> one report
//	POST /v1/batch         many jobs -> results in job order
//	POST /v1/batch/stream  many jobs -> NDJSON results in completion order
//	GET  /v1/metrics       server + pool/cache gauges
//	GET  /v1/healthz       readiness ("serving" / "draining")
//
// Operational behavior:
//
//   - Admission control: a request is admitted only if its job count fits
//     the remaining queue capacity; otherwise 429 with Retry-After. The
//     bound covers running and queued jobs together, so a flood degrades
//     into fast rejections instead of unbounded memory.
//   - Per-request timeout: each admitted request runs under its own
//     deadline; expiry cancels the fixpoint at its next iteration and
//     returns 504.
//   - Graceful drain: BeginDrain flips readiness and makes new analysis
//     requests 503; Drain then waits for every admitted job to finish.
//     cmd/specserve wires this to SIGTERM.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specabsint"
	"specabsint/wire"
)

// Config sizes the server. The zero value of any field selects its default.
type Config struct {
	// Service is the analysis engine; required.
	Service *specabsint.Service
	// QueueBound caps admitted-but-unfinished jobs (running + queued);
	// default 256. Requests that would exceed it get 429.
	QueueBound int
	// RequestTimeout is the per-request analysis deadline; default 30s,
	// negative disables it.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies; default 4 MiB.
	MaxBodyBytes int64
	// MaxBatchJobs caps jobs per batch request; default 1024.
	MaxBatchJobs int
}

// Defaults for Config's zero values.
const (
	DefaultQueueBound     = 256
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxBodyBytes   = 4 << 20
	DefaultMaxBatchJobs   = 1024
)

// Server is the v1 HTTP front end. Create with New; it implements
// http.Handler.
type Server struct {
	svc   *specabsint.Service
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	// admission is the bounded queue: used counts admitted jobs not yet
	// finished, capacity is the 429 threshold.
	admission struct {
		mu       sync.Mutex
		used     int
		capacity int
	}
	// jobs tracks admitted work for Drain.
	jobs sync.WaitGroup

	draining atomic.Bool
	requests atomic.Int64
	rejected atomic.Int64
	errCount atomic.Int64
}

// New builds a server around cfg.Service.
func New(cfg Config) *Server {
	if cfg.Service == nil {
		panic("serve: Config.Service is required")
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = DefaultQueueBound
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxBatchJobs <= 0 {
		cfg.MaxBatchJobs = DefaultMaxBatchJobs
	}
	s := &Server{svc: cfg.Service, cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	s.admission.capacity = cfg.QueueBound
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/batch/stream", s.handleBatchStream)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain flips the server into draining: /v1/healthz reports not-ready
// and new analysis requests are refused with 503. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain begins draining (if not already) and blocks until every admitted
// job has finished, or ctx expires. The HTTP listener should be shut down
// by the caller (http.Server.Shutdown) — Drain covers the analysis side.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// The pool has no queued work left beyond what the WaitGroup covered;
	// this settles its gauges.
	return s.svc.Drain(ctx)
}

// tryAdmit reserves n job slots, or reports how the request must be turned
// away (the *wire.Error is nil on success).
func (s *Server) tryAdmit(n int) (int, *wire.Error) {
	if s.draining.Load() {
		return http.StatusServiceUnavailable,
			&wire.Error{Code: wire.CodeDraining, Message: "server is draining"}
	}
	s.admission.mu.Lock()
	defer s.admission.mu.Unlock()
	if s.admission.used+n > s.admission.capacity {
		s.rejected.Add(int64(n))
		return http.StatusTooManyRequests, &wire.Error{
			Code: wire.CodeOverloaded,
			Message: fmt.Sprintf("admission queue full (%d/%d slots in use, %d requested)",
				s.admission.used, s.admission.capacity, n),
		}
	}
	s.admission.used += n
	s.requests.Add(int64(n))
	s.jobs.Add(n)
	return 0, nil
}

// releaseJobs returns n admitted slots.
func (s *Server) releaseJobs(n int) {
	s.admission.mu.Lock()
	s.admission.used -= n
	s.admission.mu.Unlock()
	s.jobs.Add(-n)
}

// requestContext applies the per-request analysis deadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout < 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// inFlight reads the admission gauge.
func (s *Server) inFlight() int64 {
	s.admission.mu.Lock()
	defer s.admission.mu.Unlock()
	return int64(s.admission.used)
}

// decodeBody strictly parses a wire request body into dst.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) *wire.Error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer body.Close()
	buf, err := io.ReadAll(body)
	if err != nil {
		return &wire.Error{Code: wire.CodeBadRequest, Message: "reading body: " + err.Error()}
	}
	if err := wire.Unmarshal(buf, dst); err != nil {
		return &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}
	}
	return nil
}

// writeDoc writes a canonical wire document.
func writeDoc(w http.ResponseWriter, status int, doc any) {
	out, err := wire.Marshal(doc)
	if err != nil {
		// Marshaling our own response types cannot fail; if it somehow does,
		// emit a bare 500 rather than a half-written body.
		http.Error(w, "internal marshal error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(out)
}

// writeError writes the standard error envelope.
func writeError(w http.ResponseWriter, status int, e *wire.Error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeDoc(w, status, wire.ErrorResponse{V: wire.Version, Error: e})
}

// wireError maps a per-job analysis failure onto the frozen error contract.
func wireError(err error) (int, *wire.Error) {
	var perr *specabsint.ParseError
	switch {
	case errors.As(err, &perr):
		return http.StatusUnprocessableEntity, &wire.Error{
			Code:    wire.CodeCompileError,
			Message: perr.Msg,
			Line:    perr.Line(),
			Col:     perr.Col(),
		}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, &wire.Error{
			Code:    wire.CodeTimeout,
			Message: "analysis exceeded the per-request deadline",
		}
	case errors.Is(err, specabsint.ErrCanceled):
		return http.StatusInternalServerError, &wire.Error{
			Code:    wire.CodeCanceled,
			Message: "analysis canceled",
		}
	}
	return http.StatusInternalServerError, &wire.Error{
		Code:    wire.CodeInternal,
		Message: err.Error(),
	}
}

// checkVersion accepts absent (0) or current versions only.
func checkVersion(v int) *wire.Error {
	if v != 0 && v != wire.Version {
		return &wire.Error{
			Code:    wire.CodeBadRequest,
			Message: fmt.Sprintf("unsupported wire version %d (want %d)", v, wire.Version),
		}
	}
	return nil
}

// jobOptions resolves batch-level + per-job wire options into the final
// option list for one job.
func jobOptions(batch, job *wire.Options) ([]specabsint.Option, *wire.Error) {
	cfg, err := mergeOptions(batch, job).Config()
	if err != nil {
		return nil, &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}
	}
	return cfg.Options(), nil
}

// mergeOptions overlays every field a job sets over its batch's options.
// Every wire.Options field is a pointer, nil when absent, so the overlay
// walks them all: a field added later merges too, and a job's own value is
// validated like a request's.
func mergeOptions(batch, job *wire.Options) *wire.Options {
	if batch == nil {
		return job
	}
	if job == nil {
		return batch
	}
	out := *batch
	dst, src := reflect.ValueOf(&out).Elem(), reflect.ValueOf(job).Elem()
	for i := range src.NumField() {
		if f := src.Field(i); !f.IsNil() {
			dst.Field(i).Set(f)
		}
	}
	return &out
}

// handleAnalyze serves POST /v1/analyze.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req wire.AnalyzeRequest
	if e := s.decodeBody(w, r, &req); e != nil {
		writeError(w, http.StatusBadRequest, e)
		return
	}
	if e := checkVersion(req.V); e != nil {
		writeError(w, http.StatusBadRequest, e)
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest,
			&wire.Error{Code: wire.CodeBadRequest, Message: "missing source"})
		return
	}
	opts, e := jobOptions(req.Options, nil)
	if e != nil {
		writeError(w, http.StatusBadRequest, e)
		return
	}
	if status, e := s.tryAdmit(1); e != nil {
		writeError(w, status, e)
		return
	}
	defer s.releaseJobs(1)
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res := s.svc.Analyze(ctx, req.Name, req.Source, opts...)
	if res.Err != nil {
		s.errCount.Add(1)
		status, e := wireError(res.Err)
		writeError(w, status, e)
		return
	}
	writeDoc(w, http.StatusOK, wire.AnalyzeResponse{
		V:            wire.Version,
		Name:         req.Name,
		CacheHit:     res.CacheHit,
		ElapsedNanos: res.Elapsed.Nanoseconds(),
		Report:       wire.FromReport(res.Report),
	})
}

// decodeBatch parses and validates a batch body, returning the resolved
// jobs. On error the response has been written.
func (s *Server) decodeBatch(w http.ResponseWriter, r *http.Request) ([]specabsint.BatchJob, bool) {
	var req wire.BatchRequest
	if e := s.decodeBody(w, r, &req); e != nil {
		writeError(w, http.StatusBadRequest, e)
		return nil, false
	}
	if e := checkVersion(req.V); e != nil {
		writeError(w, http.StatusBadRequest, e)
		return nil, false
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest,
			&wire.Error{Code: wire.CodeBadRequest, Message: "empty batch"})
		return nil, false
	}
	if len(req.Jobs) > s.cfg.MaxBatchJobs {
		writeError(w, http.StatusBadRequest, &wire.Error{
			Code:    wire.CodeBadRequest,
			Message: fmt.Sprintf("batch of %d jobs exceeds the %d-job limit", len(req.Jobs), s.cfg.MaxBatchJobs),
		})
		return nil, false
	}
	jobs := make([]specabsint.BatchJob, len(req.Jobs))
	for i, j := range req.Jobs {
		if j.Source == "" {
			writeError(w, http.StatusBadRequest, &wire.Error{
				Code:    wire.CodeBadRequest,
				Message: fmt.Sprintf("job %d (%s): missing source", i, j.Name),
			})
			return nil, false
		}
		opts, e := jobOptions(req.Options, j.Options)
		if e != nil {
			e.Message = fmt.Sprintf("job %d (%s): %s", i, j.Name, e.Message)
			writeError(w, http.StatusBadRequest, e)
			return nil, false
		}
		jobs[i] = specabsint.BatchJob{Name: j.Name, Source: j.Source, Options: opts}
	}
	return jobs, true
}

// batchItem lifts one job result into its wire form.
func batchItem(res specabsint.BatchResult) wire.BatchItem {
	item := wire.BatchItem{
		V:            wire.Version,
		Index:        res.Index,
		Name:         res.Name,
		CacheHit:     res.CacheHit,
		ElapsedNanos: res.Elapsed.Nanoseconds(),
	}
	if res.Err != nil {
		_, item.Error = wireError(res.Err)
	} else {
		item.Report = wire.FromReport(res.Report)
	}
	return item
}

// handleBatch serves POST /v1/batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	jobs, ok := s.decodeBatch(w, r)
	if !ok {
		return
	}
	if status, e := s.tryAdmit(len(jobs)); e != nil {
		writeError(w, status, e)
		return
	}
	defer s.releaseJobs(len(jobs))
	ctx, cancel := s.requestContext(r)
	defer cancel()
	results, _ := s.svc.AnalyzeBatch(ctx, jobs)
	resp := wire.BatchResponse{V: wire.Version, Results: make([]wire.BatchItem, len(results))}
	for i, res := range results {
		if res.Err != nil {
			s.errCount.Add(1)
		}
		resp.Results[i] = batchItem(res)
	}
	writeDoc(w, http.StatusOK, resp)
}

// handleBatchStream serves POST /v1/batch/stream: NDJSON, one BatchItem per
// job and line in completion order, flushed as they finish.
func (s *Server) handleBatchStream(w http.ResponseWriter, r *http.Request) {
	jobs, ok := s.decodeBatch(w, r)
	if !ok {
		return
	}
	if status, e := s.tryAdmit(len(jobs)); e != nil {
		writeError(w, status, e)
		return
	}
	defer s.releaseJobs(len(jobs))
	ctx, cancel := s.requestContext(r)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for res := range s.svc.Stream(ctx, jobs) {
		if res.Err != nil {
			s.errCount.Add(1)
		}
		line, err := wire.MarshalLine(batchItem(res))
		if err != nil {
			return
		}
		if _, err := w.Write(line); err != nil {
			// Client went away. The stream has room for every result, so
			// its remaining jobs finish without a reader.
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleMetrics serves GET /v1/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeDoc(w, http.StatusOK, wire.Metrics{
		V: wire.Version,
		Server: wire.ServerMetrics{
			UptimeNanos: time.Since(s.start).Nanoseconds(),
			Requests:    s.requests.Load(),
			Rejected:    s.rejected.Load(),
			Errors:      s.errCount.Load(),
			InFlight:    s.inFlight(),
			QueueBound:  s.admission.capacity,
			Draining:    s.draining.Load(),
		},
		Pool: s.svc.Snapshot(),
	})
}

// handleHealthz serves GET /v1/healthz: 200 while serving, 503 once
// draining (so load balancers stop routing before shutdown completes).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeDoc(w, http.StatusServiceUnavailable,
			wire.HealthResponse{V: wire.Version, OK: false, St: "draining"})
		return
	}
	writeDoc(w, http.StatusOK, wire.HealthResponse{V: wire.Version, OK: true, St: "serving"})
}

// RetryAfter returns the backoff a 429 response's Retry-After header
// suggests, in whole seconds, or def when the header is absent or invalid.
func RetryAfter(h http.Header, def time.Duration) time.Duration {
	if v := h.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return def
}
