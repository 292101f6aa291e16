package obs

import (
	"context"
	"log/slog"
	"testing"
)

func TestNilContextIsSafe(t *testing.T) {
	var c *Context
	if c.Enabled() || c.Tracing() {
		t.Error("nil context reports enabled")
	}
	s := c.StartSpan("x")
	if s.Active() {
		t.Error("nil context produced an active span")
	}
	s.End()
	if c.WithSpan(s) != nil {
		t.Error("WithSpan on nil context is not nil")
	}
	c.Counter("c").Inc()
	c.Gauge("g").Set(1)
	c.Histogram("h").Observe(1)
	c.Log(context.Background(), slog.LevelError, "dropped")
}

// TestNoOpPathAllocatesNothing is the ≤2%-overhead guarantee in its
// strictest form: with instrumentation disabled, the hot-path calls the
// solver makes per iteration allocate zero bytes.
func TestNoOpPathAllocatesNothing(t *testing.T) {
	var nilCtx *Context
	disabled := &Context{} // non-nil but sink-less
	for _, tc := range []struct {
		name string
		ctx  *Context
	}{
		{"nil", nilCtx},
		{"disabled", disabled},
		{"idle bus", &Context{Bus: NewBus(1)}},
	} {
		ctx := tc.ctx
		allocs := testing.AllocsPerRun(1000, func() {
			sp := ctx.StartSpan("solve")
			child := sp.Child("bounds")
			child.ArgInt("lb", 3)
			child.End()
			ctx.Counter(MSolves).Inc()
			ctx.Gauge(MCertifiedGap).Set(0.1)
			ctx.Histogram(MSweepPointSec).Observe(0.5)
			ctx.Log(context.Background(), slog.LevelDebug, "suppressed")
			run := ctx.WithSpan(sp).StartSolver(context.Background(), "anneal")
			run.Incumbent(1, 10)
			run.Stage("bounds", EvBound, 0, 8)
			run.Certify(10, 8, false)
			run.End()
			sp.End()
		})
		if allocs != 0 {
			t.Errorf("%s context: %v allocs per run, want 0", tc.name, allocs)
		}
	}
}

func TestWithSpanParenting(t *testing.T) {
	ctx := &Context{Tracer: NewTracerWithClock(fakeClock())}
	root := ctx.StartSpan("solve")
	sub := ctx.WithSpan(root)
	child := sub.StartSpan("anneal")
	child.End()
	// The original context is untouched: its StartSpan still creates roots.
	other := ctx.StartSpan("sweep")
	other.End()
	root.End()

	recs := ctx.Tracer.Snapshot()
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["anneal"].TID != byName["solve"].TID {
		t.Error("WithSpan child landed on a different track than its parent")
	}
	if byName["sweep"].TID == byName["solve"].TID {
		t.Error("root span after WithSpan reused the derived track")
	}
	if err := WellNested(recs); err != nil {
		t.Error(err)
	}
}

func TestEnabledAndTracing(t *testing.T) {
	if (&Context{}).Enabled() {
		t.Error("sink-less context reports enabled")
	}
	if !(&Context{Metrics: NewRegistry()}).Enabled() {
		t.Error("metrics-only context reports disabled")
	}
	tctx := &Context{Tracer: NewTracer()}
	if !tctx.Enabled() || !tctx.Tracing() {
		t.Error("tracer-bearing context reports disabled")
	}
	if (&Context{Metrics: NewRegistry()}).Tracing() {
		t.Error("metrics-only context reports tracing")
	}
}
