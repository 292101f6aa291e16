package core

import (
	"context"
	"fmt"
	"log/slog"

	"hilp/internal/faults"
	"hilp/internal/obs"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

// Profile controls the adaptive time-step resolution loop of §III-D.
type Profile struct {
	// InitialStepSec is the starting time-step size in seconds.
	InitialStepSec float64
	// Horizon is the number of time steps the exact methods may use.
	Horizon int
	// RefineWhileBelow triggers a 5x resolution refinement while the solved
	// makespan is below this many steps.
	RefineWhileBelow int
	// MaxRefinements bounds the number of refinements.
	MaxRefinements int
}

// ValidationProfile matches the paper's validation experiments: 2 s steps,
// 1,000-step horizon, refine 5x while the workload finishes in under 200
// steps.
var ValidationProfile = Profile{InitialStepSec: 2, Horizon: 1000, RefineWhileBelow: 200, MaxRefinements: 6}

// DSEProfile matches the paper's design-space exploration: 10 s steps,
// 200-step horizon, refine 5x while the workload finishes in under 40 steps.
var DSEProfile = Profile{InitialStepSec: 10, Horizon: 200, RefineWhileBelow: 40, MaxRefinements: 6}

// Result is a complete HILP evaluation of one (workload, SoC) pair.
type Result struct {
	Instance *Instance
	Sched    scheduler.Result

	StepSec     float64 // final resolution
	MakespanSec float64
	// Speedup is relative to fully sequential execution on a single CPU
	// core (the paper's baseline), computed in seconds.
	Speedup float64
	// WLP is the schedule's average workload-level parallelism.
	WLP float64
	// Gap is the certified relative optimality gap at the final resolution.
	Gap float64
	// Refinements counts how many times the resolution was adapted.
	Refinements int
	// Cancelled is true when the evaluation was cut short by context
	// cancellation or deadline expiry: the §III-D loop stopped early, and
	// the result is the best incumbent at the resolution reached so far,
	// with a valid (if loose) gap. It is set even when Sched.Proven is:
	// Sched speaks only for the resolution reached, not for the one the loop
	// would have returned. wire.FromResult is the one place that merges the
	// two (a cancelled result never claims proven on the wire).
	Cancelled bool
	// Degraded is true when any refinement iteration fell back to the
	// heuristic scheduler after the primary solver failed (see
	// SolveProblem); the schedule is feasible and the bound valid, but the
	// gap is typically looser. The flag is sticky across refinements.
	Degraded bool
	// FallbackReason classifies the first degradation ("panic", "numerics",
	// "injected-fault", ...); empty unless Degraded.
	FallbackReason string
}

// Solve evaluates the workload on the SoC with HILP: it builds the instance,
// solves it, and adapts the time-step resolution until the makespan is well
// resolved (or the refinement budget runs out). Cancelling ctx stops the
// loop at the current resolution and returns the best result so far with
// Result.Cancelled set (see SolveAdaptive).
func Solve(ctx context.Context, w rodinia.Workload, spec soc.Spec, profile Profile, cfg scheduler.Config) (*Result, error) {
	spec = spec.Normalize()
	// Input hardening: reject NaN/Inf/negative fields with field-addressed
	// errors before any of them reach the instance builder or the solver.
	if err := ValidateWorkload(w); err != nil {
		return nil, err
	}
	if err := ValidateSpec(spec); err != nil {
		return nil, err
	}
	res, err := SolveAdaptive(ctx, func(stepSec float64, horizon int) (*Instance, error) {
		return BuildInstance(w, spec, stepSec, horizon)
	}, profile, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: solving %s on %s: %w", w.Name, spec.Label(), err)
	}
	if res.MakespanSec > 0 {
		res.Speedup = w.SequentialSingleCoreSec() / res.MakespanSec
	}
	return res, nil
}

// SolveAdaptive runs the §III-D adaptive-resolution loop over any instance
// builder: solve, refine the time step 5x while the makespan is
// under-resolved, coarsen if the initial resolution overshoots the horizon.
// The baselines package reuses it with dependency-stripped instances.
// Speedup is left at zero; callers define their own baseline.
//
// ctx is threaded into every scheduler.Solve call, so cancellation has
// anytime semantics end to end: the in-flight solve returns its best
// incumbent, the loop stops refining, and the result carries Cancelled=true
// with the resolution and gap certified so far. Errors are reserved for
// genuinely failed solves (invalid instances, infeasibility), never for
// cancellation.
//
// A cold solve that can still refine stops as soon as its incumbent falls
// below the refinement threshold (scheduler.WithRefineBelow): the loop only
// reads "makespan < RefineWhileBelow" from it before discarding it, and
// incumbents only fall, so the decision is the one the full solve would
// make. The one resolution that is kept after all, when the next finer one
// overshoots the horizon, is re-solved in full, so results match solving
// every resolution in full.
func SolveAdaptive(ctx context.Context, build func(stepSec float64, horizon int) (*Instance, error), profile Profile, cfg scheduler.Config) (*Result, error) {
	// An unknown improver fails before any instance is built.
	if _, err := scheduler.Improver(cfg.Improver); err != nil {
		return nil, err
	}
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
	// The early-exit threshold: below it the loop refines. Capped at the
	// horizon so a stopped makespan can never read as an overshoot.
	refineBelow := min(profile.RefineWhileBelow, profile.Horizon+1)

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

	noteDegraded := func(res scheduler.Result) {
		if res.Degraded {
			degraded = true
			if fallbackReason == "" {
				fallbackReason = res.FallbackReason
			}
		}
	}

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
		if !warmEnabled && refinement < profile.MaxRefinements {
			scfg = scheduler.WithRefineBelow(scfg, refineBelow)
		}
		res, err := SolveProblem(ctx, inst.Problem, scfg)
		if err != nil {
			rsp.End()
			return nil, fmt.Errorf("core: solving at %gs steps: %w", step, err)
		}
		noteDegraded(res)
		if warmEnabled {
			cfg.Warm = scheduler.WarmStartOf(inst.Problem, res.Schedule)
		}
		cur := newResult(inst, res, step, refinement)
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
			// Refinement overshot the horizon; keep the previous result,
			// solved in full if its solve stopped early.
			if scheduler.Stopped(last.Sched) {
				full, err := resolveKept(ctx, ectx, last, cfg)
				switch {
				case err == nil:
					noteDegraded(full.Sched)
					last = full
				case ctx.Err() != nil:
					last.Cancelled = true
				default:
					return nil, err
				}
			}
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

// newResult wraps one refinement iteration's solve.
func newResult(inst *Instance, res scheduler.Result, step float64, refinement int) *Result {
	return &Result{
		Instance:    inst,
		Sched:       res,
		StepSec:     step,
		MakespanSec: float64(res.Schedule.Makespan) * step,
		WLP:         res.Schedule.WLP(inst.Problem),
		Gap:         res.Gap(),
		Refinements: refinement,
		Cancelled:   res.Cancelled,
	}
}

// resolveKept re-solves the kept resolution of a stopped solve in full, as
// the same (cold, deterministic) call without the early exit.
func resolveKept(ctx context.Context, ectx *obs.Context, kept *Result, cfg scheduler.Config) (*Result, error) {
	rsp := ectx.StartSpan("refine-iteration").ArgInt("refinement", kept.Refinements).Arg("step_sec", kept.StepSec)
	defer rsp.End()
	cfg.Obs = ectx.WithSpan(rsp)
	res, err := SolveProblem(ctx, kept.Instance.Problem, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: solving at %gs steps: %w", kept.StepSec, err)
	}
	rsp.ArgInt("makespan_steps", res.Schedule.Makespan).Arg("gap", res.Gap())
	return newResult(kept.Instance, res, kept.StepSec, kept.Refinements), nil
}
