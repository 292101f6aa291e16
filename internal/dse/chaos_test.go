package dse

import (
	"context"
	"math"
	"testing"
	"time"

	"hilp/internal/core"
	"hilp/internal/faults"
	"hilp/internal/leakcheck"
	"hilp/internal/obs"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

// TestChaosSweep is the acceptance test of the fault-tolerance work: a
// 50-point sweep with ~20% of points hit by injected faults (panics, injected
// timeouts, synthetic errors, corrupted results) must still complete, report
// exactly the injected points as failed or degraded, leak no goroutines, and
// keep every non-failed point's metrics valid.
func TestChaosSweep(t *testing.T) {
	leakcheck.VerifyNoLeaks(t) // registered first so its cleanup runs last

	w := rodinia.Workload{Name: "chaos", Apps: rodinia.DefaultWorkload().Apps[:2]}
	specs := make([]soc.Spec, 50)
	for i := range specs {
		specs[i] = soc.Spec{
			CPUCores:          1 + i%4,
			GPUSMs:            16 * (i % 2),
			GPUFrequenciesMHz: []float64{765},
		}
	}

	// Times=2 exhausts both the solve attempt and its retry, so every
	// solve-site fault degrades its point instead of being healed invisibly;
	// evaluate-site panics fail the point at the sweep worker's recover
	// boundary.
	inj := faults.New(faults.Config{
		Seed:  42,
		Rate:  0.2,
		Times: 2,
		Delay: time.Millisecond,
		Sites: []string{faults.SiteSolve, faults.SiteEvaluate},
	})
	ctx := faults.NewContext(context.Background(), inj)

	reg := obs.NewRegistry()
	octx := &obs.Context{Metrics: reg}
	profile := core.Profile{InitialStepSec: 10, Horizon: 200}
	cfg := scheduler.Config{Seed: 1, Effort: 0.2}
	points := RunHILP(ctx, w, specs, profile, cfg, BatchOptions{Obs: octx}).Points

	if len(points) != len(specs) {
		t.Fatalf("sweep returned %d/%d points", len(points), len(specs))
	}

	hit := map[uint64]string{} // key -> "failed" | "degraded"
	failed := 0
	for i, p := range points {
		key := uint64(i)
		switch {
		case p.Err != nil:
			hit[key] = "failed"
			failed++
		case p.Degraded:
			if p.FallbackReason == "" {
				t.Errorf("point %d degraded without a reason", i)
			}
			hit[key] = "degraded"
		}
		if p.Err != nil {
			continue
		}
		// Every non-failed point — degraded or not — must carry valid metrics.
		if p.Speedup <= 0 || math.IsNaN(p.Speedup) || math.IsInf(p.Speedup, 0) {
			t.Errorf("point %d speedup %g invalid", i, p.Speedup)
		}
		if p.Gap < 0 || math.IsNaN(p.Gap) {
			t.Errorf("point %d gap %g invalid", i, p.Gap)
		}
	}

	fired := inj.FiredKeys()
	if len(fired) < 3 {
		t.Fatalf("only %d points were hit by injection; the chaos test needs a real fault load", len(fired))
	}
	t.Logf("chaos: %d faults on %d/%d points; %d failed, %d degraded",
		inj.FiredCount(), len(fired), len(specs), failed, len(hit)-failed)

	// Exact accounting: the failed/degraded set IS the injected set.
	firedSet := map[uint64]bool{}
	for _, k := range fired {
		firedSet[k] = true
		if _, ok := hit[k]; !ok {
			t.Errorf("fault fired on point %d but it is neither failed nor degraded", k)
		}
	}
	for k, state := range hit {
		if !firedSet[k] {
			t.Errorf("point %d is %s but no fault fired on it", k, state)
		}
	}

	// Failed points are exactly the panics the sweep workers recovered.
	if got := reg.Counter(obs.MSweepPanics).Value(); got != int64(failed) {
		t.Errorf("%s = %d, want %d (one per failed point)", obs.MSweepPanics, got, failed)
	}
	if got := reg.Counter(obs.MSweepPointsFailed).Value(); got != int64(failed) {
		t.Errorf("%s = %d, want %d", obs.MSweepPointsFailed, got, failed)
	}
}

// TestChaosSweepCleanWithRetryBudget checks the opposite regime: with the
// default Times=1 budget every solve-site fault is healed by the retry, so the
// sweep reports no failed and no degraded points even though faults fired.
func TestChaosSweepCleanWithRetryBudget(t *testing.T) {
	w := rodinia.Workload{Name: "chaos-clean", Apps: rodinia.DefaultWorkload().Apps[:2]}
	specs := make([]soc.Spec, 20)
	for i := range specs {
		specs[i] = soc.Spec{CPUCores: 1 + i%3, GPUFrequenciesMHz: []float64{765}}
	}
	inj := faults.New(faults.Config{
		Seed:  7,
		Rate:  0.5,
		Kinds: []faults.Kind{faults.KindError},
		Sites: []string{faults.SiteSolve},
	})
	ctx := faults.NewContext(context.Background(), inj)
	points := RunHILP(ctx, w, specs, core.Profile{InitialStepSec: 10, Horizon: 200}, scheduler.Config{Seed: 1, Effort: 0.2}, BatchOptions{Workers: 4}).Points
	for i, p := range points {
		if p.Err != nil {
			t.Errorf("point %d failed despite retry budget: %v", i, p.Err)
		}
		if p.Degraded {
			t.Errorf("point %d degraded despite retry budget", i)
		}
	}
	if inj.FiredCount() == 0 {
		t.Error("no faults fired; the retry path was not exercised")
	}
}

// TestRunGablesDegradedNotCached checks that Gables points carry the
// degradation of their solve and that the engine never replays a degraded
// Gables point as a cache hit: with every solve-site attempt faulted, both
// copies of a duplicated spec fall back to the heuristic and are solved.
func TestRunGablesDegradedNotCached(t *testing.T) {
	w := rodinia.Workload{Name: "chaos-gables", Apps: rodinia.DefaultWorkload().Apps[:2]}
	spec := soc.Spec{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}}
	inj := faults.New(faults.Config{Seed: 1, Rate: 1, Times: 100,
		Kinds: []faults.Kind{faults.KindError}, Sites: []string{faults.SiteSolve}})
	ctx := faults.NewContext(context.Background(), inj)
	eval := GablesEvaluator(w, core.Profile{InitialStepSec: 10, Horizon: 200}, scheduler.Config{Seed: 1, Effort: 0.2})
	res := Run(ctx, []soc.Spec{spec, spec}, BatchOptions{Workers: 1, Cache: true}, eval)

	for i, p := range res.Points {
		if p.Err != nil {
			t.Fatalf("point %d failed: %v", i, p.Err)
		}
		if !p.Degraded || p.FallbackReason != core.ReasonInjected {
			t.Errorf("point %d: degraded=%v reason=%q, want true/%s", i, p.Degraded, p.FallbackReason, core.ReasonInjected)
		}
		if p.CacheHit {
			t.Errorf("point %d replayed a degraded result from the cache", i)
		}
	}
	if res.Stats.Solved != 2 || res.Stats.CacheHits != 0 {
		t.Errorf("stats = %+v, want 2 solved and 0 cache hits", res.Stats)
	}
}
