// Command hilp-serve runs the HILP solve service: an HTTP JSON API over the
// whole evaluation stack.
//
//	hilp-serve -addr :8080 -workers 4 -default-timeout 30s
//
// Endpoints:
//
//	POST /v1/evaluate          solve one (workload, SoC) pair or a custom model
//	POST /v1/sweep             start an async design-space sweep, returns a job
//	GET  /v1/jobs/{id}         poll a sweep job
//	GET  /v1/jobs/{id}/events  stream the job's live telemetry (SSE)
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus text metrics
//
// Per-request timeouts map onto solver deadlines: a request that exceeds its
// budget still gets the best schedule found so far, with result.cancelled
// set and a valid optimality-gap certificate. Identical evaluate requests
// are served byte-identically from an LRU cache (see the X-HILP-Cache
// response header). SIGINT/SIGTERM drain in-flight solves before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hilp/internal/faults"
	"hilp/internal/obs"
	"hilp/internal/server"
)

// parseBuckets parses a comma-separated ascending list of bucket bounds in
// seconds, e.g. "0.01,0.05,0.25,1,5".
func parseBuckets(spec string) ([]float64, error) {
	parts := strings.Split(spec, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad bucket %q: %v", p, err)
		}
		if n := len(out); n > 0 && v <= out[n-1] {
			return nil, fmt.Errorf("buckets must ascend: %g after %g", v, out[n-1])
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		workers        = flag.Int("workers", 0, "concurrent solves (0 = GOMAXPROCS)")
		queueDepth     = flag.Int("queue", 0, "waiting requests beyond running solves before 429 (0 = 2x workers)")
		cacheEntries   = flag.Int("cache", 128, "solve cache entries (negative disables)")
		defaultTimeout = flag.Duration("default-timeout", 30*time.Second, "solve budget when the request sets none")
		maxTimeout     = flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested solve budgets")
		maxJobs        = flag.Int("max-jobs", 64, "retained async sweep jobs")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget")
		maxBody        = flag.Int64("max-body", 0, "request body limit in bytes before 413 (0 = 8 MiB)")
		jobRetries     = flag.Int("job-retries", 0, "retries for transiently failing sweep jobs (0 = 2, negative disables)")
		faultSpec      = flag.String("faults", "", "chaos-test fault injection spec, e.g. seed=1,rate=0.1,kinds=panic+timeout,sites=solve (empty disables)")
		logFormat      = flag.String("log-format", "text", "structured log format: text or json")
		logLevel       = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		logRing        = flag.Int("log-ring", 512, "recent structured-log records retained for GET /debug/logs")
		bucketSpec     = flag.String("latency-buckets", "", "request latency histogram buckets, comma-separated seconds ascending (empty = defaults)")
		otlpEndpoint   = flag.String("otlp-endpoint", "", "OTLP/HTTP trace endpoint receiving one span per request plus per-stage children (empty disables)")
		eventBuffer    = flag.Int("event-buffer", 0, "per-subscriber buffer for GET /v1/jobs/{id}/events, oldest events dropped beyond it (0 = 256)")
		journalDir     = flag.String("journal-dir", "", "crash-recovery journal directory: sweep jobs survive restarts and resume with completed points replayed (empty disables)")
	)
	flag.Parse()

	var injector *faults.Injector
	if *faultSpec != "" {
		cfg, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			log.Fatalf("hilp-serve: -faults: %v", err)
		}
		injector = faults.New(cfg)
		log.Printf("hilp-serve: CHAOS MODE: injecting faults (%s)", *faultSpec)
	}

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		log.Fatalf("hilp-serve: -log-level: %v", err)
	}
	var buckets []float64
	if *bucketSpec != "" {
		buckets, err = parseBuckets(*bucketSpec)
		if err != nil {
			log.Fatalf("hilp-serve: -latency-buckets: %v", err)
		}
	}

	// The structured logger fans every record into stderr and the bounded ring
	// behind GET /debug/logs. The ring captures all levels regardless of
	// -log-level, so debug context for a failed request is still retrievable.
	logBuf := obs.NewLogBuffer(*logRing)
	stderrHandler := obs.NewHandler(os.Stderr, *logFormat, level)
	logger := obs.NewLoggerHandler(obs.StampRequestID(obs.Fanout(stderrHandler, logBuf)), slog.LevelDebug)

	octx := &obs.Context{Metrics: obs.NewRegistry(), Logger: logger}
	var exporter *obs.OTLPExporter
	if *otlpEndpoint != "" {
		exporter = obs.NewOTLPExporter(*otlpEndpoint, "hilp-serve")
		exporter.SetCounters(
			octx.Counter(obs.MOTLPSpansExported),
			octx.Counter(obs.MOTLPSpansFailed),
			octx.Counter(obs.MOTLPSpansDropped),
		)
		log.Printf("hilp-serve: exporting OTLP spans to %s", *otlpEndpoint)
	}
	srv := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		CacheEntries:   *cacheEntries,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		MaxJobs:        *maxJobs,
		MaxBodyBytes:   *maxBody,
		JobRetries:     *jobRetries,
		Faults:         injector,
		Obs:            octx,
		LatencyBuckets: buckets,
		LogBuffer:      logBuf,
		EventBuffer:    *eventBuffer,
		OTLP:           exporter,
		JournalDir:     *journalDir,
	})
	if *journalDir != "" {
		rs, err := srv.Recover()
		if err != nil {
			log.Fatalf("hilp-serve: -journal-dir: %v", err)
		}
		log.Printf("hilp-serve: journal %s: replayed %d records (%d jobs: %d finished, %d resumed with %d points recovered, torn tail: %v)",
			*journalDir, rs.Records, rs.Jobs, rs.Terminal, rs.Resumed, rs.ResumedPoints, rs.Torn)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("hilp-serve: listening on %s", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("hilp-serve: %v", err)
	case got := <-sig:
		log.Printf("hilp-serve: %v, draining (budget %s)", got, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Release live SSE streams first (they would otherwise hold
	// http.Server.Shutdown open), then drain in-flight HTTP requests, then
	// cancel and collect jobs, then flush buffered spans.
	srv.Drain()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "hilp-serve: http drain: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "hilp-serve: job drain: %v\n", err)
	}
	if exporter != nil {
		if err := exporter.Flush(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "hilp-serve: otlp flush: %v\n", err)
		}
		exporter.Close()
	}
	log.Printf("hilp-serve: drained, bye")
}
