// Package server implements hilp-serve: an HTTP JSON solve service over the
// public hilp API. It exposes synchronous evaluation (POST /v1/evaluate),
// synchronous batched solves through the sweep engine (POST /v1/batch),
// asynchronous design-space sweeps behind job handles (POST /v1/sweep,
// GET /v1/jobs/{id}), liveness and Prometheus-text metrics endpoints, a
// bounded worker pool with admission control, an LRU cache keyed on the
// canonical request hash, and per-request timeouts mapped onto solver
// deadlines. Because the whole solve stack has anytime semantics, a request
// hitting its deadline still returns 200 with the best incumbent found and
// result.cancelled set — never a wasted solve.
//
// Robustness contract: every error response is a structured
// wire.ErrorResponse with a machine-readable Code; invalid models come back
// as 422 with field-addressed diagnostics, oversized bodies as 413, unknown
// JSON fields as 400, and a panic anywhere in a handler or job as a 500 (or a
// "failed" job) — never a crashed process. Sweep jobs retry transient
// failures with exponential backoff before giving up.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hilp"
	"hilp/internal/core"
	"hilp/internal/dse"
	"hilp/internal/faults"
	"hilp/internal/journal"
	"hilp/internal/obs"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
	"hilp/internal/wire"
)

// Config tunes the service. The zero value selects production-safe defaults.
type Config struct {
	// Workers bounds concurrent solves; < 1 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the ones
	// running; further requests are rejected with 429. < 1 selects
	// 2 x Workers.
	QueueDepth int
	// CacheEntries sizes the solve cache; 0 selects 128, negative disables
	// caching.
	CacheEntries int
	// DefaultTimeout bounds a solve when the request does not ask for a
	// budget; 0 selects 30 s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested budgets; 0 selects 5 min.
	MaxTimeout time.Duration
	// MaxJobs bounds retained async jobs; 0 selects 64.
	MaxJobs int
	// MaxBodyBytes bounds request bodies, rejected with 413 beyond it;
	// 0 selects 8 MiB.
	MaxBodyBytes int64
	// JobRetries bounds retry attempts after a transient sweep-job failure
	// (injected fault, recovered panic); 0 selects 2, negative disables
	// retries.
	JobRetries int
	// RetryBaseDelay is the first retry's backoff, doubling per attempt with
	// deterministic jitter; 0 selects 50 ms.
	RetryBaseDelay time.Duration
	// Faults optionally injects faults into request and job handling for
	// chaos testing; nil (the default) disables injection entirely.
	Faults *faults.Injector
	// Obs receives request metrics and solver telemetry. nil creates a
	// metrics-only context so /metrics always works.
	Obs *obs.Context
	// LatencyBuckets overrides the request/point latency histogram buckets
	// (seconds, ascending); empty selects obs.DefBuckets.
	LatencyBuckets []float64
	// RecentRequests sizes the /debug/requests ring; 0 selects 256.
	RecentRequests int
	// LogBuffer, when non-nil, backs GET /debug/logs with the recent
	// structured-log ring (fan the same buffer into Obs.Logger's handler).
	LogBuffer *obs.LogBuffer
	// EventBuffer sizes each live-event subscription's drop-oldest buffer
	// (GET /v1/jobs/{id}/events); 0 selects 256.
	EventBuffer int
	// OTLP, when non-nil, receives one span per request plus per-stage child
	// spans, carrying the request's W3C trace ID. The caller owns the
	// exporter's lifecycle (flush/close on drain).
	OTLP *obs.OTLPExporter
	// JournalDir, when non-empty, enables the crash-recovery journal: sweep
	// jobs append lifecycle records (jobStart, per-point results, jobEnd) to
	// an append-only CRC-framed journal in this directory, and Recover —
	// which the binary MUST call before serving — replays it after a
	// restart, re-registering terminal jobs and resuming interrupted ones
	// with their completed points pre-filled. Empty disables journaling.
	JournalDir string
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 64
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	switch {
	case c.JobRetries == 0:
		c.JobRetries = 2
	case c.JobRetries < 0:
		c.JobRetries = 0
	}
	if c.RetryBaseDelay == 0 {
		c.RetryBaseDelay = 50 * time.Millisecond
	}
	if c.RecentRequests == 0 {
		c.RecentRequests = 256
	}
	return c
}

// Server is the solve service. Create with New, mount Handler on an
// http.Server, and call Shutdown to drain.
type Server struct {
	cfg    Config
	obs    *obs.Context
	mux    *http.ServeMux
	cache  *cache
	reqLog *requestLog

	// tokens is the worker pool: holding a token admits one solve.
	tokens  chan struct{}
	waiting atomic.Int64

	// reqSeq and jobSeq key fault injection per request and per job.
	reqSeq atomic.Uint64
	jobSeq atomic.Uint64

	baseCtx context.Context // parent of all job contexts; Shutdown cancels it
	stop    context.CancelFunc
	jobWG   sync.WaitGroup

	// drainCh closes when the server starts draining, releasing open SSE
	// streams before http.Server.Shutdown waits on them.
	drainCh   chan struct{}
	drainOnce sync.Once
	// ownBus marks a bus created by New (closed on Shutdown) rather than one
	// the caller attached to Config.Obs.
	ownBus bool

	jobMu    sync.Mutex
	jobs     map[string]*job
	jobOrder []string
	// idem maps an X-Idempotency-Key to the job it created, so a client
	// retrying POST /v1/sweep after a lost response reattaches to the
	// original job instead of paying for a second sweep. Guarded by jobMu;
	// entries die with their job (eviction) and survive restarts via the
	// journal's jobStart records.
	idem map[string]*job

	// journal is the crash-recovery journal, non-nil only after Recover ran
	// with Config.JournalDir set. Appends are goroutine-safe.
	journal *journal.Journal
}

type job struct {
	id      string
	reqID   string // correlation ID of the request that started the job
	idemKey string // X-Idempotency-Key that created the job, if any
	total   int
	done    atomic.Int64
	mu      sync.Mutex
	status  string // "running", "done", "cancelled", "failed"
	retries int
	errMsg  string
	result  *wire.SweepResponse
	created time.Time
	// resumed marks a job recovered from the journal after a restart;
	// resumedPoints counts the points replayed instead of re-solved.
	resumed       bool
	resumedPoints int
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	octx := cfg.Obs
	if octx == nil {
		octx = &obs.Context{Metrics: obs.NewRegistry()}
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		obs:     octx,
		mux:     http.NewServeMux(),
		cache:   newCache(cfg.CacheEntries),
		reqLog:  newRequestLog(cfg.RecentRequests),
		tokens:  make(chan struct{}, cfg.Workers),
		baseCtx: ctx,
		stop:    stop,
		drainCh: make(chan struct{}),
		jobs:    map[string]*job{},
		idem:    map[string]*job{},
	}
	// The live-event bus backs GET /v1/jobs/{id}/events. Publishing is a
	// no-op until the first subscriber, so always attaching one keeps the
	// disabled-path overhead contract intact. A bus the caller attached to
	// Config.Obs is honored (and its lifecycle stays theirs).
	if octx.Bus == nil {
		octx.Bus = obs.NewBus(cfg.EventBuffer)
		s.ownBus = true
	}
	octx.Bus.SetDropCounter(octx.Counter(obs.MEventsDropped))
	// Latency histograms are created here so configured buckets win the
	// first-use race against the solver layers' default buckets.
	octx.Histogram(obs.MServeRequestSec, cfg.LatencyBuckets...)
	octx.Histogram(obs.MSweepPointSec, cfg.LatencyBuckets...)
	for _, st := range obs.Stages {
		octx.Histogram(obs.StageMetricName(st), cfg.LatencyBuckets...)
	}
	obs.SetBuildInfo(octx.Metrics)
	s.mux.HandleFunc("POST /v1/evaluate", s.instrument(s.recoverHandler(s.handleEvaluate)))
	s.mux.HandleFunc("POST /v1/sweep", s.instrument(s.recoverHandler(s.handleSweep)))
	s.mux.HandleFunc("POST /v1/batch", s.instrument(s.recoverHandler(s.handleBatch)))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument(s.recoverHandler(s.handleJob)))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument(s.recoverHandler(s.handleJobEvents)))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /debug/logs", s.handleDebugLogs)
	return s
}

// summaryKey carries the request's mutable summary through the handler
// chain, so solve handlers can enrich what the middleware records.
type summaryKey struct{}

func summaryFrom(ctx context.Context) *RequestSummary {
	s, _ := ctx.Value(summaryKey{}).(*RequestSummary)
	return s
}

// statusWriter captures the response status for the request summary.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streams flush through the
// instrumentation middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument is the request-scoped diagnostics middleware: it counts the
// request, assigns the correlation ID (honoring an incoming X-Request-ID,
// generating one otherwise), echoes it in the response header, threads it
// through the context so every log line, span, and metric exemplar
// downstream is stamped with it, and records a summary in the
// /debug/requests ring.
//
// It also owns the request's distributed-trace identity (W3C Trace Context):
// an incoming traceparent header is parsed and continued with a fresh child
// span ID, otherwise a new trace is minted; either way the request's own
// context is echoed back in the Traceparent response header. A StageTimer
// rides the context so handlers attribute latency to the pipeline stages
// (validate, cache-lookup, schedule, solve, fallback, encode); closed stages
// feed the per-stage histograms, the request summary, and — when Config.OTLP
// is set — child spans under the request span.
func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.obs.Counter(obs.MServeRequests).Inc()
		id := r.Header.Get("X-Request-ID")
		if id == "" || len(id) > 128 {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)

		var parentSpan string
		tc, err := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if err == nil {
			parentSpan = tc.SpanIDString()
			tc = tc.Child()
		} else {
			tc = obs.NewTraceContext()
		}
		w.Header().Set("Traceparent", tc.String())

		sum := &RequestSummary{ID: id, Path: r.URL.Path, Start: time.Now(), TraceID: tc.TraceIDString()}
		st := obs.NewStageTimer()
		ctx := obs.WithRequestID(r.Context(), id)
		ctx = obs.WithTraceContext(ctx, tc)
		ctx = obs.WithStageTimer(ctx, st)
		ctx = context.WithValue(ctx, summaryKey{}, sum)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.obs.Log(ctx, slog.LevelDebug, "request: accepted", "method", r.Method, "path", r.URL.Path)
		h(sw, r.WithContext(ctx))
		sum.DurationSec = time.Since(sum.Start).Seconds()
		sum.Status = sw.status
		if stages := st.Durations(); stages != nil {
			sum.Stages = stages
			for name, sec := range stages {
				s.obs.Histogram(obs.StageMetricName(name)).ObserveEx(sec, id)
			}
		}
		s.reqLog.add(*sum)
		s.obs.Publish(obs.BusEvent{
			Kind: "request", Name: r.Method + " " + r.URL.Path, Req: id,
			DurSec: sum.DurationSec, Status: strconv.Itoa(sum.Status),
		})
		s.exportRequestSpan(r, sum, tc, parentSpan, st)
		s.obs.Log(ctx, slog.LevelInfo, "request: served",
			"method", r.Method, "path", r.URL.Path, "status", sum.Status,
			"durationSec", sum.DurationSec, "solver", sum.Solver, "cache", sum.Cache)
	}
}

// exportRequestSpan enqueues the request's OTLP span plus one child span per
// closed stage interval, all under the request's trace ID. No-op without a
// configured exporter.
func (s *Server) exportRequestSpan(r *http.Request, sum *RequestSummary, tc obs.TraceContext, parentSpan string, st *obs.StageTimer) {
	if s.cfg.OTLP == nil {
		return
	}
	end := sum.Start.Add(time.Duration(sum.DurationSec * float64(time.Second)))
	root := obs.OTLPSpan{
		TraceID:       tc.TraceIDString(),
		SpanID:        tc.SpanIDString(),
		ParentSpanID:  parentSpan,
		Name:          r.Method + " " + r.URL.Path,
		StartUnixNano: sum.Start.UnixNano(),
		EndUnixNano:   end.UnixNano(),
		Attrs: []obs.OTLPAttr{
			obs.OTLPStr("hilp.request_id", sum.ID),
			obs.OTLPNum("http.response.status_code", float64(sum.Status)),
		},
	}
	spans := []obs.OTLPSpan{root}
	for _, iv := range st.Intervals() {
		spans = append(spans, obs.OTLPSpan{
			TraceID:       tc.TraceIDString(),
			SpanID:        obs.NewSpanID(),
			ParentSpanID:  tc.SpanIDString(),
			Name:          "stage:" + iv.Name,
			StartUnixNano: iv.Start.UnixNano(),
			EndUnixNano:   iv.End.UnixNano(),
			Attrs:         []obs.OTLPAttr{obs.OTLPStr("hilp.request_id", sum.ID)},
		})
	}
	s.cfg.OTLP.EnqueueAll(spans)
}

// Handler returns the HTTP handler to mount.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain releases long-lived streams: every open GET /v1/jobs/{id}/events
// subscription ends its SSE response promptly. Call it before
// http.Server.Shutdown, which blocks until streaming responses finish.
// Idempotent and safe from any goroutine.
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Shutdown drains the service: it releases live event streams, cancels every
// running job (their sweeps return completed points thanks to anytime
// semantics), and waits for job goroutines until ctx expires. Callers drain
// in-flight HTTP requests first via http.Server.Shutdown; those requests run
// on their own contexts and finish normally.
func (s *Server) Shutdown(ctx context.Context) (err error) {
	s.Drain()
	s.stop()
	done := make(chan struct{})
	go func() {
		defer s.obs.Guard("shutdown-drain")
		s.jobWG.Wait()
		close(done)
	}()
	defer func() {
		if s.ownBus {
			s.obs.Bus.Close()
		}
		// The journal closes (with a final fsync) after jobs drained, so
		// their last point and jobEnd records are durable. On a timed-out
		// shutdown this still syncs whatever was appended. A failed close
		// means that durability promise may be broken, so it surfaces.
		if s.journal != nil {
			if cerr := s.journal.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("server: closing journal: %w", cerr))
			}
		}
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: %w", ctx.Err())
	}
}

// errBusy rejects a request when the pool and its queue are saturated.
var errBusy = errors.New("server: worker pool saturated")

// acquire admits the caller to the worker pool, queueing up to QueueDepth
// waiters beyond the running solves.
func (s *Server) acquire(ctx context.Context) error {
	if n := s.waiting.Add(1); n > int64(s.cfg.Workers+s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		return errBusy
	}
	defer s.waiting.Add(-1)
	select {
	case s.tokens <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.tokens }

// solveTimeout maps the request's budget onto a solver deadline.
func (s *Server) solveTimeout(sec float64) time.Duration {
	d := s.cfg.DefaultTimeout
	if sec > 0 {
		d = time.Duration(sec * float64(time.Second))
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

func parseBaseline(name string) (hilp.Baseline, error) {
	switch strings.ToLower(name) {
	case "", "hilp":
		return hilp.BaselineHILP, nil
	case "gables":
		return hilp.BaselineGables, nil
	case "multiamdahl", "ma":
		return hilp.BaselineMultiAmdahl, nil
	}
	return 0, fmt.Errorf("unknown baseline %q (want hilp, gables, or multiamdahl)", name)
}

// apiError pairs an error with its HTTP status and machine-readable code
// (see wire.ErrorResponse.Code for the vocabulary).
type apiError struct {
	status int
	code   string
	err    error
}

// solveErr classifies an error from the model-building or solve path. Invalid
// models are the client's fault (422), recovered panics are ours (500).
func solveErr(err error) *apiError {
	var pe *scheduler.PanicError
	switch {
	case errors.Is(err, core.ErrBadModel):
		return &apiError{http.StatusUnprocessableEntity, "bad_model", err}
	case errors.Is(err, scheduler.ErrInfeasible):
		return &apiError{http.StatusUnprocessableEntity, "infeasible", err}
	case errors.As(err, &pe):
		return &apiError{http.StatusInternalServerError, "internal_panic", err}
	default:
		// Everything else on this path is a model the solver could not
		// represent (e.g. a task that does not fit the horizon).
		return &apiError{http.StatusUnprocessableEntity, "bad_model", err}
	}
}

// decodeBody parses a JSON request under the configured size limit, rejecting
// unknown fields so schema typos fail loudly instead of being ignored.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) *apiError {
	defer io.Copy(io.Discard, r.Body)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &apiError{http.StatusRequestEntityTooLarge, "too_large",
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return &apiError{http.StatusBadRequest, "malformed_json", fmt.Errorf("decoding request: %w", err)}
	}
	return nil
}

func (s *Server) writeError(ctx context.Context, w http.ResponseWriter, status int, code string, err error) {
	s.obs.Counter(obs.MServeErrors).Inc()
	if sum := summaryFrom(ctx); sum != nil {
		sum.Error = err.Error()
	}
	s.obs.Log(ctx, slog.LevelWarn, "request: error response", "status", status, "code", code, "error", err.Error())
	resp := wire.ErrorResponse{SchemaVersion: wire.SchemaVersion, Error: err.Error(), Code: code}
	var ve *core.ValidationError
	if errors.As(err, &ve) {
		resp.Fields = ve.Fields
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := wire.Marshal(resp)
	if _, werr := w.Write(body); werr != nil {
		// The status line is already out; all that is left is to note the
		// client went away mid-response.
		s.obs.Log(ctx, slog.LevelDebug, "request: writing error response", "error", werr.Error())
	}
}

func (s *Server) writeAPIError(ctx context.Context, w http.ResponseWriter, e *apiError) {
	s.writeError(ctx, w, e.status, e.code, e.err)
}

func (s *Server) writeJSON(ctx context.Context, w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		// The response is committed; a short write means the client hung up.
		s.obs.Log(ctx, slog.LevelDebug, "request: writing response", "error", err.Error())
	}
}

// recoverHandler converts a panic escaping a handler into a structured 500
// response, so one poisoned request never kills the process. /healthz stays
// un-wrapped and trivially healthy.
func (s *Server) recoverHandler(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				pe := scheduler.NewPanicError("server:"+r.URL.Path, rec)
				s.obs.Counter(obs.MServePanics).Inc()
				s.obs.Log(r.Context(), slog.LevelError, "request: panic recovered",
					"path", r.URL.Path, "error", pe.Error(), "stack", string(pe.Stack))
				s.writeError(r.Context(), w, http.StatusInternalServerError, "internal_panic", pe)
			}
		}()
		h(w, r)
	}
}

// solveOutcome is what a cached solve route's solve step hands back to
// serveCachedSolve.
type solveOutcome struct {
	// resp is the response value, encoded as the 200 body.
	resp any
	// cancelled marks a result cut short by the request's deadline.
	cancelled bool
	// cacheable is false when part of the response (a batch point) errored
	// or degraded.
	cacheable bool
	// solver, gap, degraded and fallbackReason feed the request summary.
	solver         string
	gap            float64
	degraded       bool
	fallbackReason string
}

// cachedSolve is one cached solve route's part in serveCachedSolve.
type cachedSolve struct {
	// req points at the route's request value: the body decodes into it and
	// its canonical re-encoding keys the cache. version and timeoutSec point
	// at its schemaVersion and timeoutSec fields.
	req        any
	version    *int
	timeoutSec *float64
	// validate, when non-nil, runs in the validate stage after decoding.
	validate func() *apiError
	// solve runs in the solve stage, holding a pool token, under the
	// request's deadline and fault-injection context.
	solve func(ctx context.Context) (solveOutcome, *apiError)
}

// serveCachedSolve is the request pipeline of the cached solve routes
// (POST /v1/evaluate and POST /v1/batch): decode and validate, look the
// canonical request up in the response LRU, admit the solve to the worker
// pool, solve under the request's deadline, then encode, cache and write.
// Each step is bracketed on the request's StageTimer, so the summary, the
// per-stage histograms and OTLP child spans explain where the request's
// wall-clock time went.
func (s *Server) serveCachedSolve(w http.ResponseWriter, r *http.Request, route cachedSolve) {
	inFlight := s.obs.Gauge(obs.MServeInFlight)
	inFlight.Add(1)
	defer inFlight.Add(-1)
	start := time.Now()
	defer func() {
		// The exemplar ties this observation back to the correlation ID, so a
		// slow bucket can be traced to a concrete request in /debug/requests.
		s.obs.Histogram(obs.MServeRequestSec).ObserveEx(time.Since(start).Seconds(), obs.RequestID(r.Context()))
	}()
	ctx := r.Context()
	st := obs.StageTimerFrom(ctx)
	sum := summaryFrom(ctx)

	stopValidate := st.Start(obs.StageValidate)
	apiErr := s.decodeBody(w, r, route.req)
	if apiErr == nil {
		if err := wire.CheckVersion(*route.version); err != nil {
			apiErr = &apiError{http.StatusBadRequest, "version", err}
		} else if route.validate != nil {
			apiErr = route.validate()
		}
	}
	stopValidate()
	if apiErr != nil {
		s.writeAPIError(ctx, w, apiErr)
		return
	}

	// The cache key is the canonical (re-marshaled) request, so formatting
	// and key order don't fragment it.
	stopCache := st.Start(obs.StageCacheLookup)
	canonical, err := json.Marshal(route.req)
	if err != nil {
		stopCache()
		s.writeError(ctx, w, http.StatusBadRequest, "bad_request", err)
		return
	}
	key := wire.Hash(canonical)
	if body, ok := s.cache.get(key); ok {
		stopCache()
		s.obs.Counter(obs.MServeCacheHits).Inc()
		if sum != nil {
			sum.Cache = "hit"
		}
		w.Header().Set("X-HILP-Cache", "hit")
		s.writeJSON(ctx, w, http.StatusOK, body)
		return
	}
	stopCache()
	s.obs.Counter(obs.MServeCacheMisses).Inc()
	if sum != nil {
		sum.Cache = "miss"
	}

	stopSchedule := st.Start(obs.StageSchedule)
	if err := s.acquire(ctx); err != nil {
		stopSchedule()
		if errors.Is(err, errBusy) {
			s.obs.Counter(obs.MServeRejected).Inc()
			s.writeError(ctx, w, http.StatusTooManyRequests, "busy", err)
		} else {
			s.writeError(ctx, w, http.StatusServiceUnavailable, "busy", err)
		}
		return
	}
	stopSchedule()
	defer s.release()

	solveCtx, cancel := context.WithTimeout(ctx, s.solveTimeout(*route.timeoutSec))
	defer cancel()
	solveCtx = faults.WithKey(faults.NewContext(solveCtx, s.cfg.Faults), s.reqSeq.Add(1))

	stopSolve := st.Start(obs.StageSolve)
	out, apiErr := route.solve(solveCtx)
	stopSolve()
	if apiErr != nil {
		s.writeAPIError(ctx, w, apiErr)
		return
	}
	if out.cancelled {
		s.obs.Counter(obs.MServeDeadlines).Inc()
	}
	if sum != nil {
		sum.Solver = out.solver
		sum.Gap = out.gap
		sum.Cancelled = out.cancelled
		sum.Degraded = out.degraded
		sum.FallbackReason = out.fallbackReason
	}

	stopEncode := st.Start(obs.StageEncode)
	defer stopEncode()
	body, err := wire.Marshal(out.resp)
	if err != nil {
		s.writeError(ctx, w, http.StatusInternalServerError, "", err)
		return
	}
	// Cancelled results are the best incumbent under *this* request's
	// deadline, degraded ones are fallback answers to a transient failure,
	// and a batch with errored points is partial: never serve any of them
	// to later callers.
	if out.cacheable && !out.cancelled && !out.degraded {
		s.cache.put(key, body)
	}
	w.Header().Set("X-HILP-Cache", "miss")
	s.writeJSON(ctx, w, http.StatusOK, body)
}

// handleEvaluate serves POST /v1/evaluate: one design point, either a
// (workload, SoC) pair from the paper's template or a custom model. The
// workload resolves inside the solve stage.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req wire.EvaluateRequest
	s.serveCachedSolve(w, r, cachedSolve{
		req:        &req,
		version:    &req.SchemaVersion,
		timeoutSec: &req.TimeoutSec,
		validate:   func() *apiError { return checkSolver(req.Solver) },
		solve: func(ctx context.Context) (solveOutcome, *apiError) {
			evaluate := s.evaluateTemplate
			if req.Model != nil {
				evaluate = s.evaluateModel
			}
			result, apiErr := evaluate(ctx, &req)
			if apiErr != nil {
				return solveOutcome{}, apiErr
			}
			return solveOutcome{
				resp:           wire.EvaluateResponse{SchemaVersion: wire.SchemaVersion, Result: result},
				cancelled:      result.Cancelled,
				cacheable:      true,
				solver:         result.Method,
				gap:            result.Gap,
				degraded:       result.Degraded,
				fallbackReason: result.FallbackReason,
			}, nil
		},
	})
}

// checkSolver rejects a solver configuration whose improver is not in the
// scheduler's improver table.
func checkSolver(c *wire.SolverConfig) *apiError {
	if c == nil {
		return nil
	}
	if _, err := scheduler.Improver(c.Improver); err != nil {
		return &apiError{http.StatusBadRequest, "bad_request", err}
	}
	return nil
}

// evaluateTemplate solves a (workload, SoC) pair from the paper's template.
func (s *Server) evaluateTemplate(ctx context.Context, req *wire.EvaluateRequest) (wire.Result, *apiError) {
	if req.SoC == nil {
		return wire.Result{}, &apiError{http.StatusBadRequest, "bad_request",
			errors.New("request lacks both soc and model")}
	}
	var ww wire.Workload
	if req.Workload != nil {
		ww = *req.Workload
	}
	w, err := ww.ToWorkload()
	if err != nil {
		return wire.Result{}, solveErr(err)
	}
	baseline, err := parseBaseline(req.Baseline)
	if err != nil {
		return wire.Result{}, &apiError{http.StatusBadRequest, "bad_request", err}
	}
	spec := req.SoC.ToSpec()
	opts := []hilp.Option{hilp.WithBaseline(baseline), hilp.WithObs(s.obs)}
	if req.Profile != nil {
		opts = append(opts, hilp.WithProfile(req.Profile.ToProfile()))
	}
	if req.Solver != nil {
		opts = append(opts, hilp.WithSolver(req.Solver.ToConfig()))
	}
	res, err := hilp.Solve(ctx, w, spec, opts...)
	if err != nil {
		return wire.Result{}, solveErr(err)
	}
	out := wire.FromResult(res)
	out.SpecLabel = spec.Normalize().Label()
	return out, nil
}

// evaluateModel solves a custom model (§VII) through the fault-tolerant
// solve chain, so a transient solver failure degrades to the heuristic
// fallback instead of failing the request.
func (s *Server) evaluateModel(ctx context.Context, req *wire.EvaluateRequest) (wire.Result, *apiError) {
	step := req.StepSec
	if step == 0 {
		step = 1
	}
	horizon := req.Horizon
	if horizon == 0 {
		horizon = 200
	}
	cfg := scheduler.Config{Seed: 1}
	if req.Solver != nil {
		cfg = req.Solver.ToConfig()
	}
	cfg.Obs = s.obs
	inst, res, err := hilp.SolveModelContext(ctx, *req.Model, step, horizon, cfg)
	if err != nil {
		return wire.Result{}, solveErr(err)
	}
	makespanSec := float64(res.Schedule.Makespan) * step
	return wire.Result{
		SchemaVersion:  wire.SchemaVersion,
		StepSec:        step,
		MakespanSec:    makespanSec,
		Speedup:        wire.ModelSpeedup(*req.Model, makespanSec),
		WLP:            res.Schedule.WLP(inst.Problem),
		Gap:            res.Gap(),
		Proven:         res.Proven,
		Method:         res.Method,
		Cancelled:      res.Cancelled,
		Degraded:       res.Degraded,
		FallbackReason: res.FallbackReason,
	}, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req wire.SweepRequest
	if apiErr := s.decodeBody(w, r, &req); apiErr != nil {
		s.writeAPIError(r.Context(), w, apiErr)
		return
	}
	if err := wire.CheckVersion(req.SchemaVersion); err != nil {
		s.writeError(r.Context(), w, http.StatusBadRequest, "version", err)
		return
	}
	// A duplicate submission (client retry after a lost 202) reattaches to
	// the job its idempotency key already created — no second sweep.
	idemKey := r.Header.Get("X-Idempotency-Key")
	if idemKey != "" {
		s.jobMu.Lock()
		dup := s.idem[idemKey]
		s.jobMu.Unlock()
		if dup != nil {
			if sum := summaryFrom(r.Context()); sum != nil {
				sum.JobID = dup.id
			}
			body, _ := wire.Marshal(dup.snapshot())
			s.writeJSON(r.Context(), w, http.StatusOK, body)
			return
		}
	}
	plan, apiErr := s.planSweep(&req)
	if apiErr != nil {
		s.writeAPIError(r.Context(), w, apiErr)
		return
	}

	j, existing, err := s.newJob(len(plan.specs), idemKey)
	if err != nil {
		s.obs.Counter(obs.MServeRejected).Inc()
		s.writeError(r.Context(), w, http.StatusTooManyRequests, "busy", err)
		return
	}
	if existing {
		if sum := summaryFrom(r.Context()); sum != nil {
			sum.JobID = j.id
		}
		body, _ := wire.Marshal(j.snapshot())
		s.writeJSON(r.Context(), w, http.StatusOK, body)
		return
	}
	// The job inherits the starting request's correlation ID: every per-point
	// log line and exemplar of the async sweep traces back to this request.
	j.reqID = obs.RequestID(r.Context())
	if sum := summaryFrom(r.Context()); sum != nil {
		sum.JobID = j.id
	}
	// The jobStart record is durable before the 202 leaves: once the client
	// has a job handle, a crash cannot forget the job existed.
	s.journalJobStart(j, plan)
	opts := append(plan.opts,
		hilp.WithProgress(func(p hilp.SweepProgress) { j.done.Store(int64(p.Done)) }))
	opts = s.withJournalCheckpoint(opts, j)

	s.jobWG.Add(1)
	s.obs.Gauge(obs.MServeJobsActive).Add(1)
	go s.runJob(j, plan.workload, plan.specs, opts, plan.timeout)

	body, _ := wire.Marshal(j.snapshot())
	s.writeJSON(r.Context(), w, http.StatusAccepted, body)
}

// sweepPlan is a validated, fully-resolved sweep: what handleSweep builds
// from a request and what Recover rebuilds from a journaled one.
type sweepPlan struct {
	workload rodinia.Workload
	specs    []soc.Spec
	opts     []hilp.Option // everything but the per-job progress/checkpoint hooks
	timeout  time.Duration
	// req is the normalized request — explicit resolved specs, no Space —
	// as journaled in the jobStart record, and modelKey its canonical model
	// identity (workload, specs, baseline, profile, solver). Resuming a
	// journaled job against a different model is refused.
	req      *wire.SweepRequest
	modelKey string
}

// resolveSpecs resolves a batch or sweep request's workload (nil selects the
// default) and the design points to solve: the explicit specs, or else the
// enumerated space.
func resolveSpecs(ww *wire.Workload, specs []wire.SoC, space *wire.Space) (rodinia.Workload, []soc.Spec, *apiError) {
	if ww == nil {
		ww = &wire.Workload{}
	}
	workload, err := ww.ToWorkload()
	if err != nil {
		return rodinia.Workload{}, nil, solveErr(err)
	}
	out := make([]soc.Spec, 0, len(specs))
	for _, sp := range specs {
		out = append(out, sp.ToSpec())
	}
	if len(out) == 0 {
		if space == nil {
			space = &wire.Space{}
		}
		out = soc.DesignSpace(workload, space.ToSpaceConfig())
	}
	return workload, out, nil
}

// planSweep validates a sweep request and resolves it into a runnable plan.
func (s *Server) planSweep(req *wire.SweepRequest) (*sweepPlan, *apiError) {
	if apiErr := checkSolver(req.Solver); apiErr != nil {
		return nil, apiErr
	}
	workload, specs, apiErr := resolveSpecs(req.Workload, req.Specs, req.Space)
	if apiErr != nil {
		return nil, apiErr
	}
	baseline, err := parseBaseline(req.Baseline)
	if err != nil {
		return nil, &apiError{http.StatusBadRequest, "bad_request", err}
	}
	// Sweep-engine features (schema v2) are opt-in per request and default
	// to off, preserving v1 sweep behavior exactly.
	opts := []hilp.Option{
		hilp.WithBaseline(baseline),
		hilp.WithObs(s.obs),
		hilp.WithWorkers(s.cfg.Workers),
		hilp.WithCache(req.Cache),
		hilp.WithWarmStart(req.WarmStart),
		hilp.WithPruning(req.Pruning),
	}
	if req.Profile != nil {
		opts = append(opts, hilp.WithProfile(req.Profile.ToProfile()))
	}
	if req.Solver != nil {
		opts = append(opts, hilp.WithSolver(req.Solver.ToConfig()))
	}
	// Normalize the request for the journal: explicit specs (so recovery
	// does not depend on design-space enumeration being stable across
	// versions) and no Space.
	norm := *req
	norm.Specs = make([]wire.SoC, len(specs))
	for i, sp := range specs {
		norm.Specs[i] = wire.FromSpec(sp)
	}
	norm.Space = nil
	return &sweepPlan{
		workload: workload,
		specs:    specs,
		opts:     opts,
		timeout:  s.solveTimeout(req.TimeoutSec),
		req:      &norm,
		modelKey: sweepModelKey(&norm),
	}, nil
}

// runJob executes a sweep job with panic isolation and a bounded
// retry/backoff loop: transient failures (injected faults, recovered panics)
// are retried up to Config.JobRetries times before the job is marked failed.
func (s *Server) runJob(j *job, workload rodinia.Workload, specs []soc.Spec, opts []hilp.Option, timeout time.Duration) {
	defer s.jobWG.Done()
	defer s.obs.Gauge(obs.MServeJobsActive).Add(-1)
	// Registered before the recover defer so it observes the terminal status
	// even when the job dies to a recovered panic (defers run LIFO).
	defer func() {
		j.mu.Lock()
		status, errMsg := j.status, j.errMsg
		j.mu.Unlock()
		// The jobEnd record is synced immediately: a terminal status must
		// never be lost to a crash, or recovery would re-run a finished job.
		s.journalJobEnd(j, status, errMsg)
		s.obs.Publish(obs.BusEvent{
			Kind: "job", Name: status, Job: j.id, Req: j.reqID,
			Done: int(j.done.Load()), Total: j.total, Status: status,
		})
	}()
	defer func() {
		if rec := recover(); rec != nil {
			pe := scheduler.NewPanicError("server.job", rec)
			s.obs.Counter(obs.MServePanics).Inc()
			s.obs.Log(context.Background(), slog.LevelError, "job: panic recovered",
				"job", j.id, "req", j.reqID, "error", pe.Error(), "stack", string(pe.Stack))
			j.fail(pe)
		}
	}()
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()
	ctx = obs.WithRequestID(ctx, j.reqID)
	ctx = faults.WithKey(faults.NewContext(ctx, s.cfg.Faults), s.jobSeq.Add(1))
	// Job lifecycle events bracket the sweep's own bus traffic, so an SSE
	// subscriber sees "running" first and a terminal status last (the
	// terminal event is published by the defer above).
	s.obs.Publish(obs.BusEvent{Kind: "job", Name: "running", Job: j.id, Req: j.reqID, Total: j.total})
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := s.sweepOnce(ctx, j, workload, specs, opts)
		if err == nil {
			return
		}
		lastErr = err
		if ctx.Err() != nil || attempt >= s.cfg.JobRetries || !core.Transient(err) {
			break
		}
		j.retried()
		s.obs.Counter(obs.MServeRetries).Inc()
		s.obs.Log(ctx, slog.LevelWarn, "job: attempt failed, retrying",
			"job", j.id, "attempt", attempt+1, "error", err.Error())
		sleepBackoff(ctx, s.cfg.RetryBaseDelay, attempt, j.id)
	}
	s.obs.Log(ctx, slog.LevelError, "job: failed", "job", j.id, "error", lastErr.Error())
	j.fail(lastErr)
}

// sweepOnce runs one sweep attempt. Panics — including injected ones, and
// those hilp.SolveBatch recovers itself — convert to errors so runJob's
// retry loop can classify them.
func (s *Server) sweepOnce(ctx context.Context, j *job, workload rodinia.Workload, specs []soc.Spec, opts []hilp.Option) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = scheduler.NewPanicError("server.sweep", rec)
		}
		var pe *scheduler.PanicError
		if errors.As(err, &pe) {
			s.obs.Counter(obs.MServePanics).Inc()
		}
	}()
	fp := faults.FromContext(ctx)
	fp.PanicNow(faults.SiteServe)
	if ferr := fp.InjectErr(ctx, faults.SiteServe); ferr != nil {
		return ferr
	}
	res, err := hilp.SolveBatch(ctx, workload, specs, opts...)
	if err != nil {
		return err
	}
	j.finish(res.Points, ctx.Err() != nil)
	if ctx.Err() != nil {
		s.obs.Counter(obs.MServeDeadlines).Inc()
	}
	return nil
}

// sleepBackoff waits base << attempt plus deterministic jitter derived from
// the job id, or until ctx is done. Deterministic jitter keeps chaos tests
// replayable while still de-synchronizing real concurrent retries.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int, id string) {
	d := base << uint(attempt)
	h := fnv.New64a()
	io.WriteString(h, id)
	h.Write([]byte{byte(attempt)})
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	t := time.NewTimer(d + jitter)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.jobMu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.jobMu.Unlock()
	if !ok {
		s.writeError(r.Context(), w, http.StatusNotFound, "not_found", fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	body, err := wire.Marshal(j.snapshot())
	if err != nil {
		s.writeError(r.Context(), w, http.StatusInternalServerError, "", err)
		return
	}
	s.writeJSON(r.Context(), w, http.StatusOK, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(r.Context(), w, http.StatusOK, []byte("{\"status\":\"ok\"}\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if s.obs != nil && s.obs.Metrics != nil {
		// Scrape-time gauges: Go runtime stats plus the pool and cache state,
		// sampled fresh on every /metrics pull.
		obs.CaptureRuntime(s.obs.Metrics)
		s.obs.Gauge(obs.MServeSubscribers).Set(float64(s.obs.Bus.SubscriberCount()))
		s.obs.Gauge(obs.MServePoolBusy).Set(float64(len(s.tokens)))
		s.obs.Gauge(obs.MServeQueueWaiting).Set(float64(s.waiting.Load()))
		s.obs.Gauge(obs.MServeCacheEntries).Set(float64(s.cache.len()))
		hits := s.obs.Counter(obs.MServeCacheHits).Value()
		misses := s.obs.Counter(obs.MServeCacheMisses).Value()
		if total := hits + misses; total > 0 {
			s.obs.Gauge(obs.MServeCacheHitRatio).Set(float64(hits) / float64(total))
		}
		s.obs.Metrics.WritePrometheus(w)
	}
}

// newJob registers a job, evicting the oldest finished job when the registry
// is full. A request is rejected (429) only when every retained job is still
// running. The idempotency key, when non-empty, is bound to the job under the
// same lock so a concurrent duplicate submission cannot race past it.
func (s *Server) newJob(total int, idemKey string) (j *job, existing bool, err error) {
	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return nil, false, err
	}
	j = &job{id: hex.EncodeToString(raw[:]), idemKey: idemKey, total: total, status: "running", created: time.Now()}
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	if idemKey != "" {
		if dup := s.idem[idemKey]; dup != nil {
			// A concurrent duplicate won the race: reattach to its job
			// instead of registering (and running) a second one.
			return dup, true, nil
		}
	}
	if len(s.jobs) >= s.cfg.MaxJobs {
		if !s.evictTerminalLocked() {
			return nil, false, fmt.Errorf("job registry full (%d running jobs)", len(s.jobs))
		}
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	if idemKey != "" {
		s.idem[idemKey] = j
	}
	return j, false, nil
}

// evictTerminalLocked removes the oldest terminal job (with its idempotency
// mapping) under s.jobMu, reporting whether one was found.
func (s *Server) evictTerminalLocked() bool {
	for i, id := range s.jobOrder {
		old := s.jobs[id]
		old.mu.Lock()
		terminal := old.status != "running"
		old.mu.Unlock()
		if terminal {
			delete(s.jobs, id)
			if old.idemKey != "" {
				delete(s.idem, old.idemKey)
			}
			s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
			return true
		}
	}
	return false
}

// wirePoints converts sweep points to their wire form plus the Pareto index
// list.
func wirePoints(points []hilp.Point) ([]wire.Point, []int) {
	out := make([]wire.Point, 0, len(points))
	for _, p := range points {
		out = append(out, dse.ToWirePoint(p))
	}
	byLabel := map[string]int{}
	for i, p := range points {
		byLabel[p.Label] = i
	}
	var pareto []int
	for _, p := range hilp.ParetoFront(points) {
		pareto = append(pareto, byLabel[p.Label])
	}
	return out, pareto
}

// finish records the job's terminal state.
func (j *job) finish(points []hilp.Point, cancelled bool) {
	resp := &wire.SweepResponse{SchemaVersion: wire.SchemaVersion}
	resp.Points, resp.Pareto = wirePoints(points)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done.Store(int64(len(points)))
	j.result = resp
	if cancelled {
		j.status = "cancelled"
	} else {
		j.status = "done"
	}
}

// retried counts one job-level retry.
func (j *job) retried() {
	j.mu.Lock()
	j.retries++
	j.mu.Unlock()
}

// fail marks the job failed unless an attempt already finished it.
func (j *job) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != "running" {
		return
	}
	j.status = "failed"
	j.errMsg = err.Error()
}

// snapshot renders the job's current wire state.
func (j *job) snapshot() wire.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return wire.Job{
		SchemaVersion: wire.SchemaVersion,
		ID:            j.id,
		Status:        j.status,
		Done:          int(j.done.Load()),
		Total:         j.total,
		URL:           "/v1/jobs/" + j.id,
		EventsURL:     "/v1/jobs/" + j.id + "/events",
		Retries:       j.retries,
		Error:         j.errMsg,
		RequestID:     j.reqID,
		Resumed:       j.resumed,
		ResumedPoints: j.resumedPoints,
		Result:        j.result,
	}
}
