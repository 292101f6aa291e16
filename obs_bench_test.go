package hilp_test

// Benchmarks guarding the observability layer's overhead contract: the
// solver with a disabled (nil) obs.Context must stay within ~2% of the
// uninstrumented baseline, and the micro-benchmarks isolate the per-call
// cost of the no-op path. BENCH_obs.json records a reference run; refresh
// it with:
//
//	go test -bench 'BenchmarkObs|BenchmarkEvaluate' -benchmem -run - .

import (
	"context"
	"log/slog"
	"testing"

	"hilp"
	"hilp/internal/obs"
)

func benchWorkload() hilp.Workload {
	w := hilp.DefaultWorkload()
	return hilp.Workload{Name: "bench-small", Apps: w.Apps[:3]}
}

func benchSpec() hilp.SoC {
	return hilp.SoC{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{300, 765}}
}

func benchEvaluate(b *testing.B, octx *hilp.ObsContext) {
	w := benchWorkload()
	spec := benchSpec()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := hilp.SolverConfig{Seed: 1, Effort: 0.25, Restarts: 1, Obs: octx}
		if _, err := hilp.Solve(ctx, w, spec, hilp.WithSolver(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateBaseline is the uninstrumented reference.
func BenchmarkEvaluateBaseline(b *testing.B) { benchEvaluate(b, nil) }

// BenchmarkEvaluateObsDisabled threads a sink-less context through every
// layer; its delta vs the baseline is the disabled-instrumentation overhead
// the ≤2% contract bounds.
func BenchmarkEvaluateObsDisabled(b *testing.B) { benchEvaluate(b, &hilp.ObsContext{}) }

// BenchmarkEvaluateObsFull traces and meters the same solve, showing the
// cost ceiling when both sinks are attached.
func BenchmarkEvaluateObsFull(b *testing.B) {
	benchEvaluate(b, &hilp.ObsContext{Tracer: hilp.NewTracer(), Metrics: hilp.NewMetricsRegistry()})
}

// BenchmarkObsNoopCalls measures the raw per-call price of the disabled
// path (an inert solver run handle with its span, counter, gauge,
// histogram, a suppressed structured log, and the run's events).
func BenchmarkObsNoopCalls(b *testing.B) {
	var octx *obs.Context
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run := octx.StartSolver(ctx, "solve")
		octx.Counter(obs.MSolves).Inc()
		octx.Gauge(obs.MCertifiedGap).Set(0.1)
		octx.Histogram(obs.MSweepPointSec).Observe(0.5)
		octx.Log(ctx, slog.LevelDebug, "suppressed", "i", i)
		run.Incumbent(i, 10)
		run.Bound(i, 8)
		run.End()
	}
}

// BenchmarkEvaluateObsBusIdle is the hilp-serve default: an event bus
// attached to the context with no live subscriber. Publishing short-circuits
// before stamping or fan-out, so this must track BenchmarkEvaluateObsDisabled.
func BenchmarkEvaluateObsBusIdle(b *testing.B) {
	benchEvaluate(b, &hilp.ObsContext{Bus: obs.NewBus(0)})
}

// BenchmarkObsBusPublishIdle is the per-publish price with zero subscribers
// (the always-attached server bus between SSE clients).
func BenchmarkObsBusPublishIdle(b *testing.B) {
	bus := obs.NewBus(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(obs.BusEvent{Kind: "point", Name: "bench", Iter: i, Value: 1.5})
	}
}

// BenchmarkObsBusPublishLive is the per-publish price with one subscriber
// draining concurrently: stamp, fan-out, and channel send.
func BenchmarkObsBusPublishLive(b *testing.B) {
	bus := obs.NewBus(1024)
	sub := bus.Subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.C {
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(obs.BusEvent{Kind: "point", Name: "bench", Iter: i, Value: 1.5})
	}
	b.StopTimer()
	bus.Close()
	<-done
}

// BenchmarkObsActiveCalls is the same call sequence against live sinks.
func BenchmarkObsActiveCalls(b *testing.B) {
	octx := &obs.Context{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh recorder per iteration keeps recorded-event memory O(1).
		octx.Recorder = obs.NewRecorder()
		run := octx.StartSolver(ctx, "solve")
		octx.Counter(obs.MSolves).Inc()
		octx.Gauge(obs.MCertifiedGap).Set(0.1)
		octx.Histogram(obs.MSweepPointSec).Observe(0.5)
		octx.Log(ctx, slog.LevelDebug, "suppressed", "i", i)
		run.Incumbent(i, 10)
		run.Bound(i, 8)
		run.End()
	}
}
