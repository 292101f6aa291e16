package dse

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"hilp/internal/soc"
)

func TestSweepCancelStopsDispatch(t *testing.T) {
	specs := make([]soc.Spec, 16)
	for i := range specs {
		specs[i] = soc.Spec{CPUCores: 1 + i%4}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var evaluated atomic.Int64
	// The evaluator cancels the sweep after the second evaluation, so with
	// one worker the dispatch loop must stop near the front of the list.
	eval := func(_ context.Context, s soc.Spec) Point {
		if evaluated.Add(1) == 2 {
			cancel()
		}
		return Point{Label: s.Label(), Speedup: 1}
	}
	points := Run(ctx, specs, BatchOptions{Workers: 1}, eval).Points
	defer cancel()

	if n := evaluated.Load(); n >= int64(len(specs)) {
		t.Fatalf("all %d specs evaluated despite cancellation", n)
	}
	var done, undispatched int
	for i, p := range points {
		switch {
		case p.Err == nil:
			done++
			if p.Speedup != 1 {
				t.Errorf("point %d lost its result: %+v", i, p)
			}
		case errors.Is(p.Err, context.Canceled):
			undispatched++
			if p.Label == "" {
				t.Errorf("undispatched point %d lacks a label", i)
			}
		default:
			t.Errorf("point %d unexpected error %v", i, p.Err)
		}
	}
	if done == 0 {
		t.Error("no completed points preserved")
	}
	if undispatched == 0 {
		t.Error("no undispatched points marked with the context error")
	}
	if done+undispatched != len(specs) {
		t.Errorf("%d done + %d undispatched != %d specs", done, undispatched, len(specs))
	}
}

func TestSweepPropagatesEvaluatorCancelledFlag(t *testing.T) {
	specs := []soc.Spec{{CPUCores: 1}, {CPUCores: 2}}
	eval := func(_ context.Context, s soc.Spec) Point {
		return Point{Label: s.Label(), Cancelled: true}
	}
	points := Run(context.Background(), specs, BatchOptions{Workers: 1}, eval).Points
	for i, p := range points {
		if !p.Cancelled {
			t.Errorf("point %d lost Cancelled flag", i)
		}
	}
}
