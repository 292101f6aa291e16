package dse

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"hilp/internal/obs"
	"hilp/internal/soc"
)

// stubEvaluator scores a spec by its CPU count without running the solver,
// failing specs with zero cores.
func stubEvaluator(_ context.Context, s soc.Spec) Point {
	p := newPoint(s)
	if s.CPUCores == 0 {
		p.Err = errors.New("stub: infeasible")
		return p
	}
	p.Speedup = float64(s.CPUCores)
	return p
}

func stubSpecs(n int) []soc.Spec {
	specs := make([]soc.Spec, n)
	for i := range specs {
		specs[i] = soc.Spec{CPUCores: i} // spec 0 fails
	}
	return specs
}

func TestSweepDefaultsWorkers(t *testing.T) {
	// workers <= 0 must select GOMAXPROCS rather than deadlock with zero
	// workers draining the job channel.
	for _, workers := range []int{0, -3} {
		points := Run(context.Background(), stubSpecs(6), BatchOptions{Workers: workers}, stubEvaluator).Points
		if len(points) != 6 {
			t.Fatalf("workers=%d: %d points, want 6", workers, len(points))
		}
		for i, p := range points[1:] {
			if p.Err != nil || p.Speedup != float64(i+1) {
				t.Errorf("workers=%d: point %d = %+v, want speedup %d", workers, i+1, p, i+1)
			}
		}
	}
}

func TestSweepOptsProgress(t *testing.T) {
	const n = 12
	var updates []Progress
	reg := obs.NewRegistry()
	opts := BatchOptions{
		Workers: 4,
		Obs:     &obs.Context{Metrics: reg},
		// OnProgress calls are serialized, so appending without a lock is the
		// exact guarantee under test (the race detector enforces it).
		OnProgress: func(p Progress) { updates = append(updates, p) },
	}
	points := Run(context.Background(), stubSpecs(n), opts, stubEvaluator).Points
	if len(points) != n {
		t.Fatalf("%d points, want %d", len(points), n)
	}

	if len(updates) != n {
		t.Fatalf("%d progress updates, want %d", len(updates), n)
	}
	for i, u := range updates {
		if u.Done != i+1 {
			t.Errorf("update %d has Done %d, want strictly increasing %d", i, u.Done, i+1)
		}
		if u.Total != n {
			t.Errorf("update %d has Total %d, want %d", i, u.Total, n)
		}
	}
	last := updates[n-1]
	if !last.HasBest || last.Best.Speedup != n-1 {
		t.Errorf("final best = %+v (hasBest %v), want speedup %d", last.Best, last.HasBest, n-1)
	}
	if last.ETA != 0 {
		t.Errorf("final ETA = %v, want 0", last.ETA)
	}

	if got := reg.Counter(obs.MSweepPoints).Value(); got != n {
		t.Errorf("%s = %d, want %d", obs.MSweepPoints, got, n)
	}
	if got := reg.Counter(obs.MSweepPointsFailed).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MSweepPointsFailed, got)
	}
	if got := reg.Histogram(obs.MSweepPointSec).Count(); got != n {
		t.Errorf("%s count = %d, want %d", obs.MSweepPointSec, got, n)
	}
}

func TestSweepOptsRecordsSpan(t *testing.T) {
	ctx := &obs.Context{Tracer: obs.NewTracer()}
	Run(context.Background(), stubSpecs(3), BatchOptions{Workers: 2, Obs: ctx}, stubEvaluator)
	recs := ctx.Tracer.Snapshot()
	if len(recs) != 1 || recs[0].Name != "sweep" {
		t.Fatalf("spans = %+v, want one sweep span", recs)
	}
	if got := recs[0].Args["points"]; got != 3 {
		t.Errorf("sweep args[points] = %v, want 3", got)
	}
	if got := recs[0].Args["workers"]; got != 2 {
		t.Errorf("sweep args[workers] = %v, want 2", got)
	}
	if err := obs.WellNested(recs); err != nil {
		t.Error(err)
	}
}

func TestSweepOrderIndependentOfWorkers(t *testing.T) {
	specs := stubSpecs(9)
	want := fmt.Sprint(Run(context.Background(), specs, BatchOptions{Workers: 1}, stubEvaluator).Points)
	for _, workers := range []int{2, 8} {
		if got := fmt.Sprint(Run(context.Background(), specs, BatchOptions{Workers: workers}, stubEvaluator).Points); got != want {
			t.Errorf("workers=%d reordered points:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}
