package core

import (
	"context"
	"fmt"
	"log/slog"
	"reflect"
	"testing"

	"hilp/internal/faults"
	"hilp/internal/obs"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

// Differential oracle for the adaptive loop's early exit: SolveAdaptive must
// return exactly what the loop returned when every resolution ran the full
// solve pipeline.

// referenceSolveAdaptive is SolveAdaptive before coarse refinement solves
// could stop early, kept verbatim: every resolution runs SolveProblem in full.
func referenceSolveAdaptive(ctx context.Context, build func(stepSec float64, horizon int) (*Instance, error), profile Profile, cfg scheduler.Config) (*Result, error) {
	step := profile.InitialStepSec
	var last *Result
	// Degradation is sticky across refinements: once any iteration fell back
	// to the heuristic scheduler, the whole evaluation reports Degraded even
	// if a finer (or the kept coarser) iteration solved cleanly, so chaos
	// accounting and callers see every point a fault actually touched.
	var degraded bool
	var fallbackReason string
	// When the caller supplied a warm-start hint, refinements self-warm: each
	// iteration's schedule seeds the next resolution's search (task indexing
	// and option labels are resolution-invariant), so only the first, coarsest
	// solve pays the full search cost. Cold solves stay warm-free end to end.
	warmEnabled := cfg.Warm != nil

	octx := cfg.Obs
	esp := octx.StartSpan("evaluate")
	defer esp.End()
	if esp.Active() {
		if id := obs.RequestID(ctx); id != "" {
			esp.ArgStr("req", id)
		}
	}
	ectx := octx.WithSpan(esp)
	octx.Counter(obs.MEvaluations).Inc()

	// finish records the final outcome of the adaptive loop.
	finish := func(r *Result) *Result {
		if degraded {
			r.Degraded = true
			if r.FallbackReason == "" {
				r.FallbackReason = fallbackReason
			}
		}
		octx.Counter(obs.MRefinements).Add(int64(r.Refinements))
		octx.Gauge(obs.MCertifiedGap).Set(r.Gap)
		octx.Gauge(obs.MMakespanSec).Set(r.MakespanSec)
		esp.Arg("gap", r.Gap).Arg("makespan_sec", r.MakespanSec).ArgInt("refinements", r.Refinements)
		return r
	}

	for refinement := 0; ; refinement++ {
		// Fault-injection site outside the solver's own recover boundary:
		// panics here must be caught by sweep workers, hilp.Solve, or the
		// server pool, exercising the outer isolation layers.
		faults.FromContext(ctx).PanicNow(faults.SiteEvaluate)

		rsp := ectx.StartSpan("refine-iteration").ArgInt("refinement", refinement).Arg("step_sec", step)
		rctx := ectx.WithSpan(rsp)

		bsp := rctx.StartSpan("build-instance")
		inst, err := build(step, profile.Horizon)
		if err != nil {
			bsp.End()
			rsp.End()
			return nil, err
		}
		bsp.ArgInt("tasks", len(inst.Problem.Tasks))
		bsp.End()

		scfg := cfg
		scfg.Obs = rctx
		res, err := SolveProblem(ctx, inst.Problem, scfg)
		if err != nil {
			rsp.End()
			return nil, fmt.Errorf("core: solving at %gs steps: %w", step, err)
		}
		if res.Degraded {
			degraded = true
			if fallbackReason == "" {
				fallbackReason = res.FallbackReason
			}
		}
		if warmEnabled {
			cfg.Warm = scheduler.WarmStartOf(inst.Problem, res.Schedule)
		}
		cur := &Result{
			Instance:    inst,
			Sched:       res,
			StepSec:     step,
			MakespanSec: float64(res.Schedule.Makespan) * step,
			WLP:         res.Schedule.WLP(inst.Problem),
			Gap:         res.Gap(),
			Refinements: refinement,
			Cancelled:   res.Cancelled,
		}
		octx.Log(ctx, slog.LevelDebug, "evaluate: refinement solved",
			"stepSec", step, "makespanSteps", res.Schedule.Makespan, "makespanSec", cur.MakespanSec,
			"gap", cur.Gap, "method", res.Method, "refinement", refinement)
		rsp.ArgInt("makespan_steps", res.Schedule.Makespan).Arg("gap", cur.Gap)
		rsp.End()

		if ctx.Err() != nil {
			// Cancelled: stop refining and return the best-resolved result.
			// A coarser previous result is never better than the current one
			// unless the current solve overshot the horizon.
			if res.Schedule.Makespan > profile.Horizon && last != nil {
				last.Cancelled = true
				return finish(last), nil
			}
			cur.Cancelled = true
			return finish(cur), nil
		}

		switch {
		case res.Schedule.Makespan > profile.Horizon && last != nil:
			// Refinement overshot the horizon; keep the previous result.
			return finish(last), nil
		case res.Schedule.Makespan > profile.Horizon && refinement < profile.MaxRefinements:
			// The initial resolution was too fine for this workload; coarsen.
			step *= 5
			last = nil
			continue
		case res.Schedule.Makespan < profile.RefineWhileBelow && refinement < profile.MaxRefinements:
			// Under-resolved: refine 5x and re-solve (paper §III-D).
			last = cur
			step /= 5
			continue
		default:
			return finish(cur), nil
		}
	}
}

type adaptiveFunc func(context.Context, func(float64, int) (*Instance, error), Profile, scheduler.Config) (*Result, error)

// countedRun runs solve with a private metrics registry and returns the
// result with the run's solve and SGS-decode counts.
func countedRun(t *testing.T, solve adaptiveFunc, ctx context.Context, build func(float64, int) (*Instance, error), profile Profile, cfg scheduler.Config) (res *Result, solves, decodes int64) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Obs = &obs.Context{Metrics: reg}
	res, err := solve(ctx, build, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, reg.Counter(obs.MSolves).Value(), reg.Counter(obs.MSGSSchedules).Value()
}

// describe prints the fields a mismatch report needs.
func describe(r *Result) string {
	s := r.Sched
	return fmt.Sprintf("step %g makespan %g (%d steps) lb %d proven %v method %q gap %g wlp %g refinements %d cancelled %v degraded %v",
		r.StepSec, r.MakespanSec, s.Schedule.Makespan, s.LowerBound, s.Proven, s.Method, r.Gap, r.WLP, r.Refinements, r.Cancelled, r.Degraded)
}

// checkSame compares every Result field, the instance and the full
// scheduler result included.
func checkSame(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: early-exit loop differs from the full loop\n got  %s\n want %s", name, describe(got), describe(want))
	}
}

func workloadBuilder(w rodinia.Workload, spec soc.Spec) func(float64, int) (*Instance, error) {
	return func(stepSec float64, horizon int) (*Instance, error) {
		return BuildInstance(w, spec, stepSec, horizon)
	}
}

// oracleSpecs is six SoCs across the §VI grid, two with a DSA, each plain,
// bandwidth-capped (Fig. 5b) and power-capped (Fig. 5c).
func oracleSpecs(w rodinia.Workload) []soc.Spec {
	dsa := soc.DSA{PEs: 4, Target: w.Apps[0].Bench.Abbrev}
	base := []soc.Spec{fastSpec(1, 0), fastSpec(2, 4), fastSpec(4, 16), fastSpec(4, 64), fastSpec(2, 16, dsa), fastSpec(1, 64, dsa)}
	var specs []soc.Spec
	for _, s := range base {
		bw, pw := s, s
		bw.MemBandwidthGBs = 100
		pw.PowerBudgetWatts = 150
		specs = append(specs, s, bw, pw)
	}
	return specs
}

var paperWorkloads = []func() rodinia.Workload{rodinia.RodiniaWorkload, rodinia.DefaultWorkload, rodinia.OptimizedWorkload}

// TestSolveAdaptiveMatchesFullLoop: cold evaluations of the paper workloads
// over the grid, both improvers, both profiles, return exactly the full
// loop's result, and the early exit does save decodes.
func TestSolveAdaptiveMatchesFullLoop(t *testing.T) {
	for _, profile := range []struct {
		name string
		p    Profile
	}{{"dse", DSEProfile}, {"validation", ValidationProfile}} {
		for _, mk := range paperWorkloads {
			w := mk()
			t.Run(profile.name+"/"+w.Name, func(t *testing.T) {
				t.Parallel()
				var refinements int
				var gotDecodes, wantDecodes int64
				for i, spec := range oracleSpecs(w) {
					if raceEnabled && (i%4 != 0 || i > 8) {
						continue
					}
					for _, imp := range []string{"anneal", "tabu"} {
						cfg := scheduler.Config{Seed: int64(1 + i), Effort: 0.02, Restarts: 1, Improver: imp}
						build := workloadBuilder(w, spec)
						got, _, gd := countedRun(t, SolveAdaptive, context.Background(), build, profile.p, cfg)
						want, _, wd := countedRun(t, referenceSolveAdaptive, context.Background(), build, profile.p, cfg)
						checkSame(t, fmt.Sprintf("%s %s", spec.Label(), imp), got, want)
						if gd > wd {
							t.Errorf("%s %s: %d decodes, the full loop needs %d", spec.Label(), imp, gd, wd)
						}
						refinements += want.Refinements
						gotDecodes += gd
						wantDecodes += wd
					}
				}
				if refinements == 0 || gotDecodes >= wantDecodes {
					t.Errorf("vacuous: %d refinements, %d decodes vs the full loop's %d", refinements, gotDecodes, wantDecodes)
				}
			})
		}
	}
}

// TestSolveAdaptiveDependencyStrippedMatchesFullLoop: the Gables baseline's
// builder (no dependency edges) takes the same loop.
func TestSolveAdaptiveDependencyStrippedMatchesFullLoop(t *testing.T) {
	w := rodinia.DefaultWorkload()
	for i, spec := range oracleSpecs(w)[:6] {
		inner := workloadBuilder(w, spec)
		build := func(stepSec float64, horizon int) (*Instance, error) {
			inst, err := inner(stepSec, horizon)
			if err != nil {
				return nil, err
			}
			for k := range inst.Problem.Tasks {
				inst.Problem.Tasks[k].Deps = nil
			}
			return inst, nil
		}
		cfg := scheduler.Config{Seed: int64(i), Effort: 0.05}
		got, _, _ := countedRun(t, SolveAdaptive, context.Background(), build, DSEProfile, cfg)
		want, _, _ := countedRun(t, referenceSolveAdaptive, context.Background(), build, DSEProfile, cfg)
		checkSame(t, spec.Label(), got, want)
	}
}

// TestSolveAdaptiveWarmChainUntouched: a warm chain (each resolution seeds
// the next) never takes the early exit, so it does exactly the same work.
func TestSolveAdaptiveWarmChainUntouched(t *testing.T) {
	w := rodinia.DefaultWorkload()
	for _, imp := range []string{"anneal", "tabu"} {
		cfg := scheduler.Config{Seed: 3, Effort: 0.05, Improver: imp}
		build := workloadBuilder(w, fastSpec(4, 64))
		cfg.Warm = &scheduler.WarmStart{}
		got, gs, gd := countedRun(t, SolveAdaptive, context.Background(), build, DSEProfile, cfg)
		cfg.Warm = &scheduler.WarmStart{}
		want, ws, wd := countedRun(t, referenceSolveAdaptive, context.Background(), build, DSEProfile, cfg)
		checkSame(t, imp, got, want)
		if want.Refinements == 0 {
			t.Fatalf("%s: vacuous, the chain never refined", imp)
		}
		if gs != ws || gd != wd {
			t.Errorf("%s: warm chain did %d solves / %d decodes, the full loop %d / %d", imp, gs, gd, ws, wd)
		}
	}
}

// overshootProfile refines below 40 steps but allows only 50, so a makespan
// of 11..39 steps overshoots after a 5x refinement and the coarser
// resolution is kept.
var overshootProfile = Profile{InitialStepSec: 10, Horizon: 50, RefineWhileBelow: 40, MaxRefinements: 6}

// TestSolveAdaptiveOvershootResolvesKept: when the finer resolution
// overshoots, the kept coarse resolution (whose solve stopped early) is
// re-solved in full and the result equals the full loop's.
func TestSolveAdaptiveOvershootResolvesKept(t *testing.T) {
	w := smallWorkload(t)
	for _, imp := range []string{"anneal", "tabu"} {
		cfg := scheduler.Config{Seed: 1, Effort: 0.2, Improver: imp}
		build := workloadBuilder(w, fastSpec(2, 16))
		got, gs, _ := countedRun(t, SolveAdaptive, context.Background(), build, overshootProfile, cfg)
		want, ws, _ := countedRun(t, referenceSolveAdaptive, context.Background(), build, overshootProfile, cfg)
		checkSame(t, imp, got, want)
		if want.Sched.Schedule.Makespan >= overshootProfile.RefineWhileBelow {
			t.Fatalf("%s: vacuous, the full loop did not keep an under-resolved result: %s", imp, describe(want))
		}
		if gs != ws+1 {
			t.Errorf("%s: %d solves, want the full loop's %d plus one re-solve", imp, gs, ws)
		}
	}
}

// cancelOnBuild wraps build to cancel the context when resolution k (0 the
// first) is built, so the solve at that resolution runs under a done context.
func cancelOnBuild(build func(float64, int) (*Instance, error), k int, cancel context.CancelFunc) func(float64, int) (*Instance, error) {
	n := 0
	return func(stepSec float64, horizon int) (*Instance, error) {
		if n == k {
			cancel()
		}
		n++
		return build(stepSec, horizon)
	}
}

// checkAnytime asserts the anytime contract: a valid schedule and bound,
// flagged cancelled.
func checkAnytime(t *testing.T, res *Result) {
	t.Helper()
	if !res.Cancelled {
		t.Error("Cancelled not set")
	}
	s := res.Sched
	if err := s.Schedule.Validate(res.Instance.Problem); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
	if s.LowerBound < 0 || s.LowerBound > s.Schedule.Makespan {
		t.Errorf("bound %d outside [0, makespan %d]", s.LowerBound, s.Schedule.Makespan)
	}
	if res.MakespanSec <= 0 || res.Gap < 0 || res.Gap > 1 {
		t.Errorf("makespan %g gap %g, want a positive makespan and a gap in [0, 1]", res.MakespanSec, res.Gap)
	}
}

// TestSolveAdaptiveCancelledAfterStoppedSolve: the context expires after a
// stopped coarse solve, mid-loop; the finer solve returns its anytime
// incumbent, flagged.
func TestSolveAdaptiveCancelledAfterStoppedSolve(t *testing.T) {
	w := smallWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	build := cancelOnBuild(workloadBuilder(w, fastSpec(4, 64)), 1, cancel)
	res, _, _ := countedRun(t, SolveAdaptive, ctx, build, DSEProfile, scheduler.Config{Seed: 1, Effort: 0.2})
	checkAnytime(t, res)
	if res.Refinements != 1 {
		t.Errorf("refinements %d, want the loop to stop at the cancelled resolution 1", res.Refinements)
	}
}

// TestSolveAdaptiveOvershootUnderDoneContext: when the finer resolution
// overshoots after the context is done, the stopped coarse result is
// returned as is, flagged, and nothing is re-solved. (Uncancelled, this
// evaluation keeps resolution 1 of 2; see the overshoot test above.)
func TestSolveAdaptiveOvershootUnderDoneContext(t *testing.T) {
	w := smallWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	build := cancelOnBuild(workloadBuilder(w, fastSpec(2, 16)), 2, cancel)
	res, solves, _ := countedRun(t, SolveAdaptive, ctx, build, overshootProfile, scheduler.Config{Seed: 1, Effort: 0.2})
	checkAnytime(t, res)
	if !scheduler.Stopped(res.Sched) || res.Refinements != 1 {
		t.Errorf("want the stopped result of resolution 1, got %s (stopped %v)", describe(res), scheduler.Stopped(res.Sched))
	}
	if solves != 3 {
		t.Errorf("%d solves, want 3: no re-solve under a done context", solves)
	}
}

// TestSolveAdaptiveRetryRunsInFull: an injected fault on the first attempt of
// the first solve sends SolveProblem to its retry, which must not stop
// early: a re-solve could not replay the retry's seed. Starting at 2 s steps,
// the overshoot profile keeps that first resolution.
func TestSolveAdaptiveRetryRunsInFull(t *testing.T) {
	w := smallWorkload(t)
	fcfg := faults.Config{Seed: 3, Rate: 1, Times: 1, Kinds: []faults.Kind{faults.KindError}, Sites: []string{faults.SiteSolve}}
	keepFirst := overshootProfile
	keepFirst.InitialStepSec = 2
	for _, profile := range []Profile{DSEProfile, overshootProfile, keepFirst} {
		for _, imp := range []string{"anneal", "tabu"} {
			cfg := scheduler.Config{Seed: 1, Effort: 0.2, Improver: imp}
			build := workloadBuilder(w, fastSpec(2, 16))
			gctx, in := chainCtx(fcfg)
			got, _, _ := countedRun(t, SolveAdaptive, gctx, build, profile, cfg)
			wctx, _ := chainCtx(fcfg)
			want, _, _ := countedRun(t, referenceSolveAdaptive, wctx, build, profile, cfg)
			name := fmt.Sprintf("%gs steps, horizon %d, %s", profile.InitialStepSec, profile.Horizon, imp)
			checkSame(t, name, got, want)
			if in.FiredCount() != 1 || want.Degraded {
				t.Errorf("%s: %d faults fired, degraded %v; want one retried fault", name, in.FiredCount(), want.Degraded)
			}
		}
	}
}

// TestSolveAdaptiveThresholdAboveHorizon: with RefineWhileBelow above the
// horizon, a makespan between the two overshoots rather than refines, so
// the early exit must stop at the horizon, not at RefineWhileBelow.
func TestSolveAdaptiveThresholdAboveHorizon(t *testing.T) {
	w := rodinia.DefaultWorkload()
	profile := Profile{InitialStepSec: 10, Horizon: 30, RefineWhileBelow: 200, MaxRefinements: 6}
	for i, spec := range oracleSpecs(w) {
		if raceEnabled && i%4 != 0 {
			continue
		}
		cfg := scheduler.Config{Seed: int64(i), Effort: 0.02, Restarts: 1}
		build := workloadBuilder(w, spec)
		got, _, _ := countedRun(t, SolveAdaptive, context.Background(), build, profile, cfg)
		want, _, _ := countedRun(t, referenceSolveAdaptive, context.Background(), build, profile, cfg)
		checkSame(t, spec.Label(), got, want)
	}
}
