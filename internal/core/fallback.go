package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"

	"hilp/internal/faults"
	"hilp/internal/milp"
	"hilp/internal/obs"
	"hilp/internal/scheduler"
)

// ErrBadResult flags a solver return that failed the trust-boundary re-check:
// an infeasible schedule or a lower bound that contradicts the incumbent. The
// fallback chain treats it like a panic — retry, then degrade — so corrupted
// results never propagate as silent garbage.
var ErrBadResult = errors.New("core: solver produced an invalid result")

// Fallback reasons recorded in Result.FallbackReason.
const (
	ReasonPanic    = "panic"
	ReasonNumerics = "numerics"
	ReasonInjected = "injected-fault"
	ReasonBadOut   = "invalid-result"
	ReasonMILPGave = "milp-incomplete"
)

// Transient reports whether err is worth retrying: solver panics, numerical
// failures, MILP searches that end without an incumbent, injected faults,
// and corrupted results. Validation errors, genuine infeasibility, and
// context expiry are final.
func Transient(err error) bool { return reasonOf(err) != "" }

// reasonOf classifies a transient error for Result.FallbackReason; it is
// empty for a final one.
func reasonOf(err error) string {
	var pe *scheduler.PanicError
	switch {
	case errors.As(err, &pe):
		return ReasonPanic
	case errors.Is(err, milp.ErrNumerics):
		return ReasonNumerics
	case errors.Is(err, faults.ErrInjected):
		return ReasonInjected
	case errors.Is(err, ErrBadResult):
		return ReasonBadOut
	case errors.Is(err, scheduler.ErrMILPIncomplete):
		return ReasonMILPGave
	}
	return ""
}

// SolveProblem is the fault-tolerant solve entry: every solver invocation in
// the stack (the adaptive loop, hilp.SolveInstanceContext and
// SolveModelContext, hilp-serve) goes through it instead of calling
// scheduler.Solve directly. The chain is
//
//	primary solve -> retry once with perturbed settings -> heuristic fallback
//
// Primary is scheduler.Solve with the improver cfg.Improver names. After any
// successful solve the result is re-checked at this trust boundary (schedule
// feasibility + bound sanity); a check failure is treated like a solver
// error. Transient failures — panics, milp.ErrNumerics, injected faults,
// corrupted results — are retried once with the improver's own perturbation
// (a new seed for anneal and tabu, looser tolerances for the MILP); if the
// retry also fails, the priority-rule heuristic scheduler produces a feasible
// schedule with the combinatorial lower bound and the result is marked
// Degraded with the fallback reason. Callers therefore always get a feasible
// schedule with a valid bound, or a typed error (validation, an unknown
// improver, genuine infeasibility, context expiry) — never silent garbage.
func SolveProblem(ctx context.Context, p *scheduler.Problem, cfg scheduler.Config) (scheduler.Result, error) {
	solve, err := scheduler.Improver(cfg.Improver)
	if err != nil {
		return scheduler.Result{}, err
	}
	octx := cfg.Obs
	fp := faults.FromContext(ctx)

	attempt := func(retry bool) (scheduler.Result, error) {
		res, err := solve(ctx, p, cfg, retry)
		if err != nil {
			return scheduler.Result{}, err
		}
		if fp.Corrupt(faults.SiteSolve) {
			// Injected result corruption: a bound that contradicts the
			// incumbent, which the trust-boundary check below must catch.
			res.LowerBound = res.Schedule.Makespan + 1
		}
		if verr := checkResult(p, res); verr != nil {
			return scheduler.Result{}, verr
		}
		return res, nil
	}

	res, err := attempt(false)
	if err == nil {
		return res, nil
	}
	if !Transient(err) || ctx.Err() != nil {
		return scheduler.Result{}, err
	}
	firstErr := err

	// Everything past the first failure is degradation work. It is attributed
	// to the "fallback" stage of the request's StageTimer — nested inside the
	// enclosing "solve" stage, so it explains solve time rather than adding to
	// the request total.
	stopFallback := obs.StageTimerFrom(ctx).Start(obs.StageFallback)
	defer stopFallback()

	octx.Counter(obs.MSolveRetries).Inc()
	octx.Log(ctx, slog.LevelWarn, "solve: transient failure, retrying with perturbed settings", "error", err.Error())
	res, err = attempt(true)
	if err == nil {
		return res, nil
	}
	if !Transient(err) || ctx.Err() != nil {
		return scheduler.Result{}, err
	}

	fb, ok := heuristicFallback(p)
	if !ok {
		// Even the heuristics cannot place every task: surface the original
		// failure rather than inventing an infeasibility verdict.
		return scheduler.Result{}, fmt.Errorf("core: solve failed and heuristic fallback found no schedule: %w", firstErr)
	}
	fb.Degraded = true
	fb.FallbackReason = reasonOf(firstErr)
	octx.Counter(obs.MSolveFallbacks).Inc()
	octx.Counter(obs.MSolveDegraded).Inc()
	octx.Log(ctx, slog.LevelWarn, "solve: degraded to heuristic fallback",
		"error", firstErr.Error(), "reason", fb.FallbackReason,
		"makespan", fb.Schedule.Makespan, "bound", fb.LowerBound)
	return fb, nil
}

// checkResult re-validates a solver result at the trust boundary: the
// schedule must be feasible for p and the bound must bracket the makespan.
func checkResult(p *scheduler.Problem, res scheduler.Result) error {
	if len(p.Tasks) == 0 {
		return nil
	}
	if err := res.Schedule.Validate(p); err != nil {
		return fmt.Errorf("%w: %v", ErrBadResult, err)
	}
	if res.LowerBound < 0 || res.LowerBound > res.Schedule.Makespan {
		return fmt.Errorf("%w: lower bound %d outside [0, makespan %d]",
			ErrBadResult, res.LowerBound, res.Schedule.Makespan)
	}
	return nil
}

// heuristicFallback is the chain's last resort: the priority-rule portfolio
// plus double justification, certified by the cheap combinatorial bound.
func heuristicFallback(p *scheduler.Problem) (scheduler.Result, bool) {
	if len(p.Tasks) == 0 {
		return scheduler.Result{Schedule: scheduler.Schedule{Start: []int{}, Option: []int{}}, Method: "trivial", Proven: true}, true
	}
	s, ok := scheduler.HeuristicSchedule(p)
	if !ok {
		return scheduler.Result{}, false
	}
	if j := scheduler.Justify(p, s); j.Makespan < s.Makespan {
		s = j
	}
	if err := s.Validate(p); err != nil {
		return scheduler.Result{}, false
	}
	lb := scheduler.LowerBound(p)
	return scheduler.Result{
		Schedule:   s,
		LowerBound: lb,
		Proven:     s.Makespan == lb,
		Method:     "heuristic-fallback",
	}, true
}
