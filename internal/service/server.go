package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"localalias/internal/obs"
	"localalias/internal/solve"
)

// Server defaults, overridable through ServerOptions.
const (
	// DefaultCacheEntries bounds the LRU result cache.
	DefaultCacheEntries = 1024
	// DefaultRequestTimeout is the per-module analysis deadline.
	DefaultRequestTimeout = 2 * time.Minute
	// DefaultDrainTimeout bounds graceful shutdown: how long in-flight
	// requests get to finish after SIGTERM before the listener is torn
	// down hard.
	DefaultDrainTimeout = 30 * time.Second
	// DefaultTraceEntries bounds the in-memory ring of recently
	// completed traces behind /v1/trace/{id}.
	DefaultTraceEntries = 256
	// maxRequestBytes bounds one request body (a batch of large
	// modules fits comfortably; a runaway upload does not).
	maxRequestBytes = 64 << 20
	// MaxBatch bounds the modules in one /v1/batch submission.
	MaxBatch = 4096
)

// ServerOptions configures a Server. The zero value picks sensible
// defaults for every field.
type ServerOptions struct {
	// Workers is the analysis pool size (0 = GOMAXPROCS). At most this
	// many modules are analyzed concurrently, across all endpoints.
	Workers int
	// CacheEntries is the LRU result-cache capacity in entries
	// (0 = DefaultCacheEntries).
	CacheEntries int
	// QueueDepth bounds admitted-but-unfinished /v1/analyze requests
	// (waiting + running). One more than that and the server answers
	// 429 immediately instead of building an unbounded backlog
	// (0 = 4×Workers). Batches are admitted whole and bounded by
	// MaxBatch instead.
	QueueDepth int
	// RequestTimeout is the per-module analysis deadline
	// (0 = DefaultRequestTimeout; negative = no deadline).
	RequestTimeout time.Duration
	// AccessLog, when non-nil, receives one line per HTTP request
	// (method, path, status, duration, trace ID, cache disposition,
	// phase timings). nil disables access logging.
	AccessLog io.Writer
	// LogFormat selects the access-log rendering: LogText (default)
	// or LogJSON.
	LogFormat string
	// MemoEntries bounds the process-wide solve memo backing the
	// incremental engine: content-addressed component summaries that
	// let a re-submitted (or lightly edited) module replay most of its
	// constraint solving (0 = solve.DefaultMemoEntries; negative
	// disables incremental re-analysis entirely). Replay is
	// byte-identical to solving fresh, so it stays out of the result
	// cache key.
	MemoEntries int
	// TraceEntries bounds the ring buffer of recently completed traces
	// served by /v1/trace/{id} (0 = DefaultTraceEntries; negative
	// disables trace retention entirely — requests still get spans and
	// an X-Lna-Trace ID, but nothing is retained for later fetch).
	TraceEntries int
}

// withDefaults resolves zero fields.
func (o ServerOptions) withDefaults() ServerOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = DefaultCacheEntries
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	} else if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	if o.MemoEntries == 0 {
		o.MemoEntries = DefaultMemoEntries()
	}
	if o.TraceEntries == 0 {
		o.TraceEntries = DefaultTraceEntries
	}
	return o
}

// Server is the resident analysis service behind `lna serve`: a fixed
// worker pool over the shared Analyze engine, an LRU cache of
// canonical response bytes keyed by content hash, request batching,
// bounded-queue backpressure, and graceful drain.
//
// Endpoints (all JSON):
//
//	POST /v1/analyze  one AnalyzeRequest → one AnalyzeResponse.
//	                  Headers: X-Lna-Cache: hit|miss,
//	                  X-Lna-Cache-Key: <sha256>. 429 when the queue
//	                  is full, 503 while draining.
//	POST /v1/batch    {"requests": [...]} → BatchResponse with
//	                  per-entry cache flags and a summary.
//	GET  /v1/health   {"status": "ok"|"draining", ...}
//	GET  /v1/stats    ServerStats snapshot.
type Server struct {
	opts  ServerOptions
	cache *Cache
	// flights holds the cold runs in progress by cache key, so
	// concurrent misses on one key run the engine once (see
	// runCached). flightMu also orders cache lookups against them.
	flightMu sync.Mutex
	flights  map[string]chan struct{}
	// inc is the incremental re-analysis engine (nil when MemoEntries
	// is negative): cache misses run through it so edited modules
	// re-solve only what changed.
	inc *Incremental
	// slots is the worker pool: holding a token = running an analysis.
	slots chan struct{}
	// queue bounds admitted single-module requests (waiting+running).
	queue chan struct{}
	// log is the access logger (nil = disabled).
	log *AccessLogger
	// traces retains recently completed request traces for
	// /v1/trace/{id} (nil when TraceEntries is negative).
	traces *obs.TraceRing

	draining atomic.Bool
	requests atomic.Uint64 // single-module requests admitted
	batches  atomic.Uint64 // batch requests admitted
	rejected atomic.Uint64 // 429s + 503s
	failures atomic.Uint64 // responses carrying a Failure record

	// Process-wide mirrors of the HTTP-level counters, exposed through
	// /v1/metrics alongside the engine's own instruments. mRequests
	// counts every admitted single-module request (hits and misses
	// both), where the engine's lna_requests_total only sees cold runs.
	mRequests *obs.Counter
	mRejected *obs.Counter
	mBatches  *obs.Counter
}

// NewServer builds a Server (see ServerOptions for the knobs).
func NewServer(opts ServerOptions) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:    o,
		cache:   NewCache(o.CacheEntries),
		flights: make(map[string]chan struct{}),
		slots:   make(chan struct{}, o.Workers),
		queue:   make(chan struct{}, o.QueueDepth),
		log:     NewAccessLogger(o.AccessLog, o.LogFormat),
		traces:  obs.NewTraceRing(o.TraceEntries),
	}
	if o.MemoEntries > 0 {
		s.inc = NewIncremental(solve.NewMemo(o.MemoEntries))
	}
	reg := obs.Default()
	s.mRequests = reg.Counter("lna_http_requests_total",
		"Single-module requests admitted (cache hits included).")
	s.mRejected = reg.Counter("lna_http_rejected_total",
		"HTTP requests refused with 429 (queue full) or 503 (draining).")
	s.mBatches = reg.Counter("lna_http_batches_total",
		"Batch submissions admitted.")
	// GaugeFunc re-registration binds the live gauges to the newest
	// Server — exactly what a process that rebuilds its server (tests,
	// config reload) wants.
	reg.GaugeFunc("lna_queue_depth",
		"Admitted-but-unfinished single-module requests (waiting + running).",
		func() int64 { return int64(len(s.queue)) })
	reg.GaugeFunc("lna_inflight_analyses",
		"Analyses currently holding a worker slot.",
		func() int64 { return int64(len(s.slots)) })
	reg.GaugeFunc("lna_cache_entries",
		"Entries resident in the result cache.",
		func() int64 { return int64(s.cache.Stats().Entries) })
	return s
}

// Options returns the resolved configuration.
func (s *Server) Options() ServerOptions { return s.opts }

// CacheStats exposes the result cache's accounting.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// ServerStats is the /v1/stats payload.
type ServerStats struct {
	Workers        int        `json:"workers"`
	QueueDepth     int        `json:"queue_depth"`
	Requests       uint64     `json:"requests"`
	BatchRequests  uint64     `json:"batch_requests"`
	Rejected       uint64     `json:"rejected"`
	Failures       uint64     `json:"failures"`
	Draining       bool       `json:"draining"`
	Cache          CacheStats `json:"cache"`
	RequestTimeout string     `json:"request_timeout"`
	// Memo is the solve-component summary memo backing incremental
	// re-analysis (nil when disabled).
	Memo *solve.MemoStats `json:"memo,omitempty"`
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/trace/", s.handleTrace)
	return mux
}

// Traces exposes the server's trace ring (nil when retention is
// disabled); the process-level smoke tests reach completed traces
// through it without going over HTTP.
func (s *Server) Traces() *obs.TraceRing { return s.traces }

// HandleTraceFrom serves GET /v1/trace/{id} out of a trace ring,
// attributing the fragment to the named process role. Shared with the
// gateway, whose handler differs only in ring and role.
func HandleTraceFrom(ring *obs.TraceRing, process string, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteWireError(w, CodeMethodNotAllowed, "use GET")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if id == "" || strings.Contains(id, "/") {
		WriteWireError(w, CodeBadRequest, "want /v1/trace/{id}")
		return
	}
	t := ring.Get(id)
	if t == nil {
		WriteWireError(w, CodeNotFound, "trace %q is not in this process's ring (expired or never seen)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(t.Export(process))
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	HandleTraceFrom(s.traces, "replica", w, r)
}

// handleMetrics serves the process-wide metrics registry: JSON by
// default, Prometheus text exposition when the client asks for it
// with ?format=prometheus or an Accept: text/plain header.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := obs.Default()
	format := r.URL.Query().Get("format")
	if format == "prometheus" ||
		(format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
		return
	}
	if format != "" && format != "json" {
		WriteWireError(w, CodeBadRequest, "unknown format %q (want json|prometheus)", format)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = reg.WriteJSON(w)
}

// decodeRequest reads and validates one JSON body into dst.
func decodeRequest(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		WriteWireError(w, CodeMethodNotAllowed, "use POST")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(dst); err != nil {
		WriteWireError(w, CodeBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// ValidateRequest rejects requests the engine cannot serve before they
// cost a queue slot (or, at a gateway, a backend round trip): an
// unsupported api_version, an unknown analysis mode, or empty source.
// nil means the request is admissible.
func ValidateRequest(req *AnalyzeRequest) *WireError {
	if req.APIVersion != "" && req.APIVersion != APIVersion {
		return &WireError{Code: CodeUnsupportedVersion,
			Message: fmt.Sprintf("api_version %q is not supported (this server speaks %q)", req.APIVersion, APIVersion)}
	}
	if !ValidMode(req.Options.Mode) {
		return &WireError{Code: CodeBadRequest,
			Message: fmt.Sprintf("unknown analysis mode %q (want check|infer|confine|qual)", req.Options.Mode)}
	}
	if req.Source == "" {
		return &WireError{Code: CodeBadRequest, Message: "empty source"}
	}
	return nil
}

// runCached serves req from the cache or runs it on the calling
// goroutine (which must already hold a worker slot). Only healthy
// responses are cached: a panic or timeout record may be environment-
// dependent, so those re-run on resubmission.
func (s *Server) runCached(ctx context.Context, req *AnalyzeRequest) (data []byte, key string, hit bool, resp *AnalyzeResponse, inc *IncrementalInfo, err error) {
	key = CacheKey(req)
	data, hit, release := s.lookup(ctx, key)
	if hit {
		return data, key, true, nil, nil, nil
	}
	defer release()
	if s.inc != nil {
		resp, inc = s.inc.Analyze(ctx, req, s.opts.RequestTimeout)
	} else {
		resp = AnalyzeBounded(ctx, req, s.opts.RequestTimeout)
	}
	if resp.Failure != nil {
		s.failures.Add(1)
	}
	data, err = resp.MarshalCanonical()
	if err != nil {
		return nil, key, false, resp, inc, err
	}
	if resp.Failure == nil {
		s.cache.Put(key, data)
	}
	return data, key, false, resp, inc, nil
}

// lookup serves key from the cache, first waiting out a cold run of
// key already in progress, so concurrent misses on one key run the
// engine once and the rest replay its bytes as hits. On a miss the
// caller runs the request and calls release when done; requests for
// key that arrive meanwhile wait for it. If that run fails (nothing is
// cached), a waiter runs the request itself; so does one whose client
// gives up waiting.
func (s *Server) lookup(ctx context.Context, key string) (data []byte, hit bool, release func()) {
	for {
		s.flightMu.Lock()
		done, running := s.flights[key]
		if !running {
			if data, ok := s.cache.Get(key); ok {
				s.flightMu.Unlock()
				return data, true, nil
			}
			done = make(chan struct{})
			s.flights[key] = done
			s.flightMu.Unlock()
			return nil, false, func() {
				s.flightMu.Lock()
				delete(s.flights, key)
				s.flightMu.Unlock()
				close(done)
			}
		}
		s.flightMu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return nil, false, func() {}
		}
	}
}

// acquireSlot takes a worker token, honouring request cancellation.
func (s *Server) acquireSlot(ctx context.Context) bool {
	select {
	case s.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *Server) releaseSlot() { <-s.slots }

func (s *Server) handleAnalyze(rw http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w := &statusWriter{ResponseWriter: rw}
	entry := AccessEntry{Time: start, Method: r.Method, Path: r.URL.Path}
	defer func() {
		entry.Status = w.Status()
		entry.DurMs = float64(time.Since(start)) / float64(time.Millisecond)
		s.log.Log(entry)
	}()
	if s.draining.Load() {
		s.rejected.Add(1)
		s.mRejected.Inc()
		WriteWireError(w, CodeDraining, "server is draining")
		return
	}
	var req AnalyzeRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if werr := ValidateRequest(&req); werr != nil {
		WriteWireError(w, werr.Code, "%s", werr.Message)
		return
	}
	entry.Module, entry.Mode = req.Module, req.Options.Mode
	// Backpressure: admission is non-blocking. A full queue means the
	// pool is RequestTimeout-deep in work already; asking the client
	// to retry beats an unbounded backlog.
	select {
	case s.queue <- struct{}{}:
		defer func() { <-s.queue }()
	default:
		s.rejected.Add(1)
		s.mRejected.Inc()
		w.Header().Set("Retry-After", "1")
		WriteWireError(w, CodeQueueFull, "analysis queue is full (%d in flight)", s.opts.QueueDepth)
		return
	}
	s.requests.Add(1)
	s.mRequests.Inc()
	// Every daemon request is traced: the spans cost microseconds next
	// to an analysis, and the trace ID is what lets an operator join
	// the access log, the response headers, and an exported trace. A
	// propagated X-Lna-Trace-Context (from a gateway's attempt span)
	// is adopted, so this process's spans join the caller's trace and
	// parent under its attempt — the replica half of distributed
	// tracing. Completed traces land in the ring behind /v1/trace/{id}.
	sc, _ := obs.ParseTraceContext(r.Header.Get(obs.TraceContextHeader))
	ot := obs.NewTraceContext(req.Module, sc)
	req.Obs = ot
	entry.Trace = ot.ID()
	defer s.traces.Put(ot)
	if !s.acquireSlot(r.Context()) {
		return // client went away while queued
	}
	defer s.releaseSlot()
	data, key, hit, resp, inc, err := s.runCached(r.Context(), &req)
	if err != nil {
		WriteWireError(w, CodeInternal, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Lna-Cache-Key", key)
	w.Header().Set("X-Lna-Trace", ot.ID())
	if hit {
		w.Header().Set("X-Lna-Cache", "hit")
		entry.Cache = "hit"
	} else {
		w.Header().Set("X-Lna-Cache", "miss")
		entry.Cache = "miss"
	}
	// How much of the cold run was replayed from component summaries
	// (cache hits skipped the analysis outright, so the header only
	// rides on misses — like X-Lna-Phases).
	if inc != nil {
		w.Header().Set("X-Lna-Incremental", inc.Disposition)
		entry.Incremental = inc.Disposition
	}
	// The whole-program pass summary of a multi_module request rides
	// in a header for the same reason (hits skipped the pass, so it
	// only appears on misses).
	if resp != nil && resp.Xmodule != "" {
		w.Header().Set("X-Lna-Xmodule", resp.Xmodule)
		entry.Xmodule = resp.Xmodule
	}
	// Per-phase timings ride in a header (and the access log), never in
	// the canonical body — cached responses must replay byte-identically.
	if resp != nil && len(resp.PhaseTimings) > 0 {
		entry.Phases = resp.PhaseTimings
		w.Header().Set("X-Lna-Phases", formatPhases(resp.PhaseTimings))
	}
	_, _ = w.Write(data)
}

// BatchRequest is a corpus-style multi-module submission.
type BatchRequest struct {
	Requests []AnalyzeRequest `json:"requests"`
}

// BatchEntry is one module's outcome within a batch: the canonical
// AnalyzeResponse plus its cache disposition and trace ID. The
// Response bytes are the cacheable canonical shape; Cached, CacheKey,
// and TraceID are batch-envelope metadata and never enter the cache.
type BatchEntry struct {
	Cached   bool            `json:"cached"`
	CacheKey string          `json:"cache_key"`
	TraceID  string          `json:"trace_id"`
	Response json.RawMessage `json:"response,omitempty"`
	// Incremental is the reuse disposition of a cold entry
	// (cold|partial|full; empty on cache hits and when incremental
	// re-analysis is disabled).
	Incremental string `json:"incremental,omitempty"`
	// Error is set — and Response empty — when this entry was never
	// analyzed: it failed admission (unknown mode, empty source,
	// unsupported api_version) or, at a gateway, no backend could
	// serve it. A batch therefore distinguishes "analyzed, result
	// empty" from "rejected" per entry instead of failing whole.
	Error *WireError `json:"error,omitempty"`
}

// BatchSummary aggregates a batch.
type BatchSummary struct {
	Modules     int `json:"modules"`
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	Failures    int `json:"failures"`
	Findings    int `json:"findings"`
	// Rejected counts entries refused without analysis (their
	// BatchEntry.Error says why); they appear in neither the hit nor
	// the miss count.
	Rejected int `json:"rejected"`
}

// BatchResponse answers /v1/batch; Results is index-aligned with the
// submitted Requests.
type BatchResponse struct {
	Results []BatchEntry `json:"results"`
	Summary BatchSummary `json:"summary"`
}

func (s *Server) handleBatch(rw http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w := &statusWriter{ResponseWriter: rw}
	entry := AccessEntry{Time: start, Method: r.Method, Path: r.URL.Path}
	defer func() {
		entry.Status = w.Status()
		entry.DurMs = float64(time.Since(start)) / float64(time.Millisecond)
		s.log.Log(entry)
	}()
	if s.draining.Load() {
		s.rejected.Add(1)
		s.mRejected.Inc()
		WriteWireError(w, CodeDraining, "server is draining")
		return
	}
	var batch BatchRequest
	if !decodeRequest(w, r, &batch) {
		return
	}
	if len(batch.Requests) == 0 {
		WriteWireError(w, CodeBadRequest, "empty batch")
		return
	}
	if len(batch.Requests) > MaxBatch {
		WriteWireError(w, CodeBadRequest, "batch of %d exceeds the %d-module limit", len(batch.Requests), MaxBatch)
		return
	}
	s.batches.Add(1)
	s.mBatches.Inc()
	entry.Modules = len(batch.Requests)

	// Fan the batch across the worker pool. Entries stream through the
	// shared slots, so one batch cannot starve concurrent requests of
	// more than its fair share of workers. Each entry gets its own
	// trace, so a slow module inside a big batch is attributable.
	out := BatchResponse{Results: make([]BatchEntry, len(batch.Requests))}
	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards the summary counters
	)
	for i := range batch.Requests {
		// Admission is per entry: a module with an unknown mode or no
		// source gets a structured per-entry error, and its healthy
		// neighbours still analyze — clients distinguish "rejected"
		// from "analyzed, result empty" by the Error field.
		if werr := ValidateRequest(&batch.Requests[i]); werr != nil {
			out.Results[i].Error = werr
			out.Summary.Rejected++
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := &batch.Requests[i]
			// Batch entries always get fresh per-entry trace IDs (never
			// the propagated context — hundreds of entries sharing one
			// trace ID would make /v1/trace/{id} ambiguous); a gateway's
			// batch spans live in its own gateway-side trace instead.
			ot := obs.NewTrace(req.Module)
			req.Obs = ot
			out.Results[i].TraceID = ot.ID()
			defer s.traces.Put(ot)
			if !s.acquireSlot(r.Context()) {
				return
			}
			defer s.releaseSlot()
			data, key, hit, resp, inc, err := s.runCached(r.Context(), req)
			if err != nil {
				out.Results[i].Error = &WireError{Code: CodeInternal, Message: err.Error()}
				data = nil
			}
			out.Results[i].Cached = hit
			out.Results[i].CacheKey = key
			out.Results[i].Response = data
			if inc != nil {
				out.Results[i].Incremental = inc.Disposition
			}
			mu.Lock()
			defer mu.Unlock()
			if hit {
				out.Summary.CacheHits++
			} else {
				out.Summary.CacheMisses++
			}
			if resp != nil {
				if resp.Failure != nil {
					out.Summary.Failures++
				}
				out.Summary.Findings += resp.Findings
			}
		}(i)
	}
	wg.Wait()
	if r.Context().Err() != nil {
		return // client went away mid-batch
	}
	out.Summary.Modules = len(batch.Requests)
	entry.Hits, entry.Misses = out.Summary.CacheHits, out.Summary.CacheMisses
	w.Header().Set("Content-Type", "application/json")
	// Per-item cache dispositions, index-aligned with the submitted
	// requests, so clients can spot cold entries without parsing the
	// body (see the header table in DESIGN.md).
	dispositions := make([]string, len(out.Results))
	for i, res := range out.Results {
		switch {
		case res.Error != nil:
			dispositions[i] = "error"
		case res.Cached:
			dispositions[i] = "hit"
		default:
			dispositions[i] = "miss"
		}
	}
	w.Header().Set("X-Lna-Cache", strings.Join(dispositions, ","))
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// HealthStatus is the /v1/health payload of one daemon.
type HealthStatus struct {
	Status     string `json:"status"` // "ok" or "draining"
	APIVersion string `json:"api_version"`
	Workers    int    `json:"workers"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(HealthStatus{
		Status:     status,
		APIVersion: APIVersion,
		Workers:    s.opts.Workers,
	})
}

// SetDraining administratively toggles the draining state: while
// draining, /v1/health reports it and new submissions are refused with
// the canonical draining error. Operators use this (via a preStop
// hook) to have a gateway's health checks remove the replica from its
// pool before the process receives SIGTERM; ListenAndServe sets it
// automatically on shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	st := ServerStats{
		Workers:        s.opts.Workers,
		QueueDepth:     s.opts.QueueDepth,
		Requests:       s.requests.Load(),
		BatchRequests:  s.batches.Load(),
		Rejected:       s.rejected.Load(),
		Failures:       s.failures.Load(),
		Draining:       s.draining.Load(),
		Cache:          s.cache.Stats(),
		RequestTimeout: s.opts.RequestTimeout.String(),
	}
	if s.inc != nil {
		ms := s.inc.Memo().Stats()
		st.Memo = &ms
	}
	_ = enc.Encode(st)
}

// ListenAndServe binds addr (port 0 picks a free port), reports the
// bound address through ready (when non-nil), and serves until ctx is
// cancelled. Cancellation triggers a graceful drain: new requests are
// refused with 503 while in-flight ones get up to DefaultDrainTimeout
// to finish. The returned error is nil on a clean drain.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready func(boundAddr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		s.draining.Store(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), DefaultDrainTimeout)
		defer cancel()
		drained <- hs.Shutdown(shutdownCtx)
	}()
	if ready != nil {
		ready(ln.Addr().String())
	}
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if ctx.Err() != nil {
		return <-drained
	}
	return nil
}
