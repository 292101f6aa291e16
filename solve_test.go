package hilp_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"hilp"
)

func miniWorkload() hilp.Workload {
	w := hilp.DefaultWorkload()
	w.Apps = w.Apps[:3]
	w.Name = "mini"
	return w
}

var quickProfile = hilp.Profile{InitialStepSec: 10, Horizon: 200, RefineWhileBelow: 0, MaxRefinements: 0}

// TestSolveRejectsUnknownImprover checks that an unknown improver fails
// before any instance is built, with an error naming the improvers there
// are.
func TestSolveRejectsUnknownImprover(t *testing.T) {
	tr := hilp.NewTracer()
	_, err := hilp.Solve(context.Background(), miniWorkload(), hilp.SoC{CPUCores: 2, GPUSMs: 16},
		hilp.WithProfile(quickProfile), hilp.WithObs(&hilp.ObsContext{Tracer: tr}),
		hilp.WithSolver(hilp.SolverConfig{Seed: 1, Improver: "foo"}))
	if err == nil || !strings.Contains(err.Error(), `unknown improver "foo" (want anneal, tabu or milp)`) {
		t.Fatalf("err = %v, want an unknown-improver error naming anneal, tabu and milp", err)
	}
	for _, sp := range tr.Snapshot() {
		t.Errorf("span %q recorded: the improver was checked after work began", sp.Name)
	}
}

func TestSolveBaselines(t *testing.T) {
	w := miniWorkload()
	spec := hilp.SoC{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}}
	opts := []hilp.Option{
		hilp.WithProfile(quickProfile),
		hilp.WithSolver(hilp.SolverConfig{Seed: 1, Effort: 0.2}),
	}

	hres, err := hilp.Solve(context.Background(), w, spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	gres, err := hilp.Solve(context.Background(), w, spec,
		append(opts, hilp.WithBaseline(hilp.BaselineGables))...)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := hilp.Solve(context.Background(), w, spec,
		append(opts, hilp.WithBaseline(hilp.BaselineMultiAmdahl))...)
	if err != nil {
		t.Fatal(err)
	}
	// Gables solves the same discretized instance minus dependencies and the
	// power cap, so it is never slower than HILP at equal resolution.
	// (MultiAmdahl is analytic — unquantized — so no ordering holds against
	// it at this coarse test profile.)
	if gres.Speedup < hres.Speedup-1e-9 {
		t.Errorf("Gables %g slower than HILP %g", gres.Speedup, hres.Speedup)
	}
	if mres.Speedup <= 0 {
		t.Errorf("MultiAmdahl speedup %g, want > 0", mres.Speedup)
	}
	if mres.WLP != 1 {
		t.Errorf("MultiAmdahl WLP %g, want 1", mres.WLP)
	}
}

func TestSolveCancelledReturnsIncumbent(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := hilp.Solve(ctx, hilp.DefaultWorkload(), hilp.SoC{CPUCores: 4, GPUSMs: 64},
		hilp.WithSolver(hilp.SolverConfig{Seed: 1, Effort: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Error("Cancelled not set")
	}
	if res.Speedup <= 0 || res.MakespanSec <= 0 {
		t.Errorf("no incumbent: speedup %g makespan %g", res.Speedup, res.MakespanSec)
	}
}

// TestSolveCancelledMidRefinementLoop: a cold evaluation whose deadline
// expires after its coarse resolutions (whose solves stop early) still
// returns a valid schedule and bound at the finer resolution, flagged.
func TestSolveCancelledMidRefinementLoop(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	res, err := hilp.Solve(ctx, hilp.DefaultWorkload(), hilp.SoC{CPUCores: 4, GPUSMs: 64},
		hilp.WithSolver(hilp.SolverConfig{Seed: 1, Effort: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Error("Cancelled not set")
	}
	if res.Refinements == 0 {
		t.Fatal("the deadline expired before the loop refined")
	}
	s := res.Sched
	if err := s.Schedule.Validate(res.Instance.Problem); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
	if s.LowerBound < 0 || s.LowerBound > s.Schedule.Makespan || res.Gap < 0 || res.Gap > 1 {
		t.Errorf("bound %d, makespan %d, gap %g: not a valid certificate", s.LowerBound, s.Schedule.Makespan, res.Gap)
	}
}

func TestSweepWithOptions(t *testing.T) {
	w := miniWorkload()
	specs := []hilp.SoC{
		{CPUCores: 1, GPUFrequenciesMHz: []float64{765}},
		{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}},
	}
	var progressCalls int
	batch, err := hilp.SolveBatch(context.Background(), w, specs,
		hilp.WithCache(false),
		hilp.WithWarmStart(false),
		hilp.WithProfile(quickProfile),
		hilp.WithSolver(hilp.SolverConfig{Seed: 1, Effort: 0.2}),
		hilp.WithWorkers(2),
		hilp.WithProgress(func(p hilp.SweepProgress) { progressCalls++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	points := batch.Points
	if len(points) != 2 {
		t.Fatalf("%d points, want 2", len(points))
	}
	for i, p := range points {
		if p.Err != nil {
			t.Errorf("point %d: %v", i, p.Err)
		}
	}
	if progressCalls != 2 {
		t.Errorf("progress called %d times, want 2", progressCalls)
	}
	if points[1].Speedup <= points[0].Speedup {
		t.Errorf("GPU SoC %g not faster than CPU-only %g", points[1].Speedup, points[0].Speedup)
	}
}

// TestSolveMILPOverCapDegrades runs a Sec. VI design point, the Default
// workload on (c4,g16), through the "milp" improver. Its time-indexed
// encoding (27k binaries at horizon 200) would need a dense simplex tableau
// of about 13 GB. The milp package refuses it, and the fallback chain
// degrades to the heuristic scheduler with reason milp-incomplete, as it does
// at a node limit, instead of exhausting memory. The refusal is
// deterministic, so the chain skips its retry.
func TestSolveMILPOverCapDegrades(t *testing.T) {
	reg := hilp.NewMetricsRegistry()
	res, err := hilp.Solve(context.Background(), hilp.DefaultWorkload(), hilp.SoC{CPUCores: 4, GPUSMs: 16},
		hilp.WithSolver(hilp.SolverConfig{Seed: 1, Improver: "milp"}), hilp.WithObs(&hilp.ObsContext{Metrics: reg}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.FallbackReason != "milp-incomplete" || res.Sched.Method != "heuristic-fallback" {
		t.Errorf("degraded=%v reason=%q method=%q, want a heuristic-fallback degraded with milp-incomplete",
			res.Degraded, res.FallbackReason, res.Sched.Method)
	}
	if err := res.Sched.Schedule.Validate(res.Instance.Problem); err != nil {
		t.Fatal(err)
	}
	// One solve per resolution, each degraded without a retry.
	solves := int64(res.Refinements + 1)
	for name, want := range map[string]int64{"hilp_core_solve_retries_total": 0, "hilp_core_solve_fallbacks_total": solves} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
