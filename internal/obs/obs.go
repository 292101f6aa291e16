// Package obs is the solver stack's observability substrate: hierarchical
// tracing spans exportable as Chrome trace-event JSON, a metrics registry
// with Prometheus-text and JSON dumps, and structured (slog) logging.
//
// The package is zero-dependency (stdlib only) and designed so the disabled
// path costs nothing: a nil *Context is fully usable — every method is
// nil-receiver safe, spans degrade to inert zero values, and no memory is
// allocated per span or per metric update. Solver layers therefore thread a
// *Context unconditionally and instrument hot paths without guarding each
// call site.
//
// Span hierarchy mirrors the paper's Figure 1 pipeline:
//
//	evaluate                      adaptive-resolution loop (core.SolveAdaptive, §III-D)
//	└── refine-iteration          one resolution level
//	    ├── build-instance        workload × SoC → scheduling instance
//	    └── solve                 layered solver (scheduler.Solve)
//	        ├── bounds            combinatorial lower bounds
//	        ├── heuristics        priority-rule seed portfolio
//	        ├── anneal-restart-k  one simulated-annealing restart
//	        ├── tabu              tabu-search improver (when selected)
//	        ├── destructive-lb    destructive lower bounding
//	        └── exact-bb          exact branch-and-bound finish
package obs

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"runtime/debug"
)

// Context carries the observability sinks threaded through the solver
// layers. The zero value and a nil pointer are both valid, fully disabled
// contexts.
type Context struct {
	// Tracer receives spans; nil disables tracing.
	Tracer *Tracer
	// Metrics receives counters, gauges, and histograms; nil disables them.
	Metrics *Registry
	// Recorder receives per-solve convergence events (the flight recorder);
	// nil disables recording.
	Recorder *Recorder
	// Logger receives structured log records (see Log); nil disables them.
	// Records are stamped with the context.Context's correlation ID.
	Logger *Logger
	// Bus fans telemetry events out to live subscribers (SSE streams,
	// -follow terminals); nil disables publishing.
	Bus *Bus

	// cur is the parent span for StartSpan, set by WithSpan.
	cur Span
}

// Enabled reports whether any sink is attached.
func (c *Context) Enabled() bool {
	return c != nil && (c.Tracer != nil || c.Metrics != nil || c.Recorder != nil || c.Logger != nil || c.Bus != nil)
}

// Publish fans one event out to the bus subscribers. Disabled contexts (or
// contexts without a bus) ignore it, so call sites publish unconditionally.
func (c *Context) Publish(ev BusEvent) {
	if c == nil || c.Bus == nil {
		return
	}
	c.Bus.Publish(ev)
}

// StartSolver opens the run of solver name, whose handle then owns all of
// its telemetry: a span, a child of the context's current span; a
// flight-recorder record; and, when the bus has live subscribers now, a bus
// binding whose events carry ctx's request ID. End closes all three. A
// disabled context returns an inert handle, so solvers record
// unconditionally.
func (c *Context) StartSolver(ctx context.Context, name string) SolverRun {
	if c == nil {
		return SolverRun{}
	}
	run := SolverRun{span: c.StartSpan(name), name: name}
	if c.Recorder != nil {
		run.r, run.idx = c.Recorder, c.Recorder.begin(name)
	}
	if c.Bus.SubscriberCount() > 0 {
		run.bus, run.req = c.Bus, RequestID(ctx)
	}
	return run
}

// Tracing reports whether spans are being recorded. Call sites use it to
// skip building span names (e.g. fmt.Sprintf) on the disabled path.
func (c *Context) Tracing() bool { return c != nil && c.Tracer != nil }

// StartSpan opens a span. When the context carries a current span (see
// WithSpan) the new span is its child on the same track; otherwise it is a
// root span on a fresh track. Disabled contexts return an inert span.
func (c *Context) StartSpan(name string) Span {
	if c == nil || c.Tracer == nil {
		return Span{}
	}
	if c.cur.t != nil {
		return c.cur.Child(name)
	}
	return c.Tracer.StartSpan(name)
}

// WithSpan returns a copy of the context whose StartSpan calls create
// children of s, so callees nest under the caller's span without an explicit
// parent parameter. A nil context stays nil.
func (c *Context) WithSpan(s Span) *Context {
	if c == nil {
		return nil
	}
	cp := *c
	cp.cur = s
	return &cp
}

// Counter returns the named counter, or nil (a valid no-op counter) when
// metrics are disabled.
func (c *Context) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	return c.Metrics.Counter(name)
}

// Gauge returns the named gauge, or nil when metrics are disabled.
func (c *Context) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	return c.Metrics.Gauge(name)
}

// Histogram returns the named histogram (created with buckets on first use),
// or nil when metrics are disabled.
func (c *Context) Histogram(name string, buckets ...float64) *Histogram {
	if c == nil {
		return nil
	}
	return c.Metrics.Histogram(name, buckets...)
}

// Guard recovers a panic escaping the calling goroutine, counts it under
// MGoroutinePanics, and reports the stack, extending the panic-isolation
// ladder to background goroutines that no request path observes. Use it as
// the goroutine's first deferred statement:
//
//	go func() {
//		defer octx.Guard("sweep-worker")
//		...
//	}()
//
// A nil *Context still recovers; the report then degrades to stderr so the
// panic is never silent.
func (c *Context) Guard(where string) {
	r := recover()
	if r == nil {
		return
	}
	c.Counter(MGoroutinePanics).Inc()
	if c.LogEnabled(slog.LevelError) {
		c.Log(context.Background(), slog.LevelError, "goroutine panic recovered",
			"where", where, "panic", fmt.Sprint(r), "stack", string(debug.Stack()))
		return
	}
	fmt.Fprintf(os.Stderr, "hilp: panic in %s goroutine (recovered): %v\n%s", where, r, debug.Stack())
}

// LogEnabled reports whether a structured record at level would be emitted,
// so call sites can skip building expensive attributes.
func (c *Context) LogEnabled(level slog.Level) bool {
	return c != nil && c.Logger.Enabled(level)
}

// Log emits one structured log record with alternating key/value args (slog
// conventions), stamped with ctx's correlation ID. Contexts without a Logger
// return immediately.
func (c *Context) Log(ctx context.Context, level slog.Level, msg string, args ...any) {
	if c == nil {
		return
	}
	c.Logger.Log(ctx, level, msg, args...)
}
