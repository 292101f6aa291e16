package scheduler

import (
	"context"
	"errors"
	"fmt"
	"log/slog"

	"hilp/internal/faults"
	"hilp/internal/obs"
)

// Config tunes the layered solve: heuristics, simulated annealing, and an
// exact pass for small instances.
type Config struct {
	// Seed drives all randomized components deterministically.
	Seed int64
	// Effort scales the annealing budget; 1.0 is the default budget and 0
	// selects it. Larger values spend proportionally more iterations.
	Effort float64
	// GapTarget is the relative optimality gap the solve tries to certify
	// (the paper uses 0.10). 0 selects 0.10.
	GapTarget float64
	// ExactTaskLimit enables the exact branch-and-bound when the instance
	// has at most this many tasks. 0 selects a default of 12.
	ExactTaskLimit int
	// ExactNodeLimit caps exact-search nodes. 0 selects a default.
	ExactNodeLimit int
	// Restarts is the number of annealing restarts. 0 selects 2.
	Restarts int
	// Improver selects the metaheuristic: "anneal" (default) or "tabu".
	Improver string
	// Warm optionally seeds the search with a donor schedule from a related
	// solve (a neighboring design point, or a coarser resolution of the same
	// one). The hint is repaired onto this instance by the serial SGS; when
	// the repaired schedule already certifies GapTarget against the cheap
	// lower bound, the improver and exact stages are skipped entirely
	// (Result.Method "warmstart"). Cold solves (nil, the default) are
	// unaffected. See WarmStart.
	Warm *WarmStart
	// Obs carries optional tracing/metrics sinks; nil (the default) disables
	// instrumentation at negligible cost.
	Obs *obs.Context

	// refineBelow, when positive, is the makespan (in steps) under which the
	// adaptive-resolution loop will discard this solve and re-solve at a
	// finer step. The improver returns as soon as its incumbent falls below
	// it, and Solve skips justification and certification. Unexported, so
	// only the loop sets it (WithRefineBelow); it is not a caller option.
	refineBelow int
}

// WithRefineBelow returns cfg with the early-exit threshold of a coarse
// refinement solve set to steps (0 disables it). Stopped reports whether a
// solve took the exit.
func WithRefineBelow(cfg Config, steps int) Config {
	cfg.refineBelow = steps
	return cfg
}

func (c Config) withDefaults() Config {
	if c.Effort == 0 {
		c.Effort = 1
	}
	if c.GapTarget == 0 {
		c.GapTarget = 0.10
	}
	if c.ExactTaskLimit == 0 {
		c.ExactTaskLimit = 12
	}
	if c.ExactNodeLimit == 0 {
		c.ExactNodeLimit = 500_000
	}
	if c.Restarts == 0 {
		c.Restarts = 2
	}
	return c
}

// Result is the outcome of Solve: the best schedule found, the proven lower
// bound, and how both were obtained.
type Result struct {
	Schedule   Schedule
	LowerBound int
	// Proven is true when the schedule is provably optimal (exact search
	// exhausted or bound met exactly).
	Proven bool
	// Method names the component that produced the final schedule.
	Method string
	// Nodes is the number of exact-search nodes explored, if any.
	Nodes int
	// Cancelled is true when the solve was cut short by context cancellation
	// or deadline expiry. The schedule and lower bound are still valid (the
	// best incumbent and certificate found before the cut), but later stages
	// that could have tightened them were skipped.
	Cancelled bool
	// Degraded is true when the primary solver failed (panic, numerics, or an
	// injected fault) and the result came from the fallback chain's heuristic
	// scheduler: the schedule is feasible and the bound valid, but the gap is
	// typically looser than a healthy solve would certify.
	Degraded bool
	// FallbackReason classifies why the solve degraded ("panic", "numerics",
	// "injected-fault", "invalid-result", ...); empty unless Degraded.
	FallbackReason string

	// stopped is set when the improver's incumbent fell below the config's
	// refineBelow threshold and the solve returned it without justification
	// or certification stages (see Stopped).
	stopped bool
}

// Stopped reports whether r came from a solve that took the coarse
// refinement early exit (WithRefineBelow): its schedule is valid and its
// bound sound, but it is not the schedule a full solve would return.
func Stopped(r Result) bool { return r.stopped }

// Gap returns the relative optimality gap (UB - LB) / UB. A value of 0 means
// proven optimal; the paper calls schedules with gap <= 0.10 near-optimal.
func (r Result) Gap() float64 {
	if r.Schedule.Makespan <= 0 {
		return 0
	}
	return float64(r.Schedule.Makespan-r.LowerBound) / float64(r.Schedule.Makespan)
}

// ErrInfeasible is returned when no feasible schedule exists (some task has
// no option whose demand fits within resource capacities).
var ErrInfeasible = errors.New("scheduler: no feasible schedule exists")

// Solve runs the layered strategy: priority-rule heuristics seed simulated
// annealing; combinatorial lower bounds certify the gap; small instances are
// finished with exact branch and bound. It mirrors the role of the ILP solver
// invocation in the paper's Figure 1.
//
// Solve honors ctx with anytime semantics: on cancellation or deadline
// expiry it stops searching and returns the best incumbent found so far with
// a valid (if loose) lower-bound certificate and Result.Cancelled set, never
// an error. Every stage — the improver, destructive lower bounding, and the
// exact finish — checks ctx at a fine grain, so the return is prompt.
//
// Solve is a panic-isolation boundary: a panic anywhere in the search is
// recovered into a *PanicError (stack attached) instead of unwinding into the
// caller, so one poisoned instance cannot kill a sweep worker or a service
// goroutine. It is also a fault-injection site (faults.SiteSolve) when the
// context carries an injector.
func Solve(ctx context.Context, p *Problem, cfg Config) (res Result, err error) {
	cfg = cfg.withDefaults()
	defer func() {
		if r := recover(); r != nil {
			pe := NewPanicError("scheduler.Solve", r)
			cfg.Obs.Counter(obs.MSolvePanics).Inc()
			cfg.Obs.Log(ctx, slog.LevelError, "solve: panic recovered", "error", pe.Error(), "stack", string(pe.Stack))
			res, err = Result{}, pe
		}
	}()
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	fp := faults.FromContext(ctx)
	fp.PanicNow(faults.SiteSolve)
	if ferr := fp.InjectErr(ctx, faults.SiteSolve); ferr != nil {
		return Result{}, ferr
	}
	if len(p.Tasks) == 0 {
		return Result{Schedule: Schedule{Start: []int{}, Option: []int{}}, Method: "trivial", Proven: true}, nil
	}

	octx := cfg.Obs
	sp := octx.StartSpan("solve").ArgInt("tasks", len(p.Tasks))
	defer sp.End()
	sctx := octx.WithSpan(sp)
	octx.Counter(obs.MSolves).Inc()

	// The solve-level flight-recorder trace tracks incumbent and bound per
	// stage (0 bounds, 1 improver, 2 justify, 3 destructive LB, 4 exact) and
	// carries the final gap certificate.
	rt := octx.Record("solve")
	defer rt.End()

	// Live stage-transition events for bus subscribers (SSE streams, -follow
	// terminals). Publishing() gates both the event build and the request-ID
	// lookup, so solves with no live listener skip the work entirely.
	var reqID string
	pub := octx.Publishing()
	if pub {
		reqID = obs.RequestID(ctx)
	}
	stageEv := func(stage string, iter int, value float64) {
		if pub {
			octx.Publish(obs.BusEvent{Kind: "stage", Name: stage, Req: reqID, Iter: iter, Value: value})
		}
	}

	bsp := sctx.StartSpan("bounds")
	lb := LowerBound(p)
	bsp.ArgInt("lower_bound", lb)
	bsp.End()
	rt.Bound(0, float64(lb))
	stageEv("bounds", 0, float64(lb))

	// Warm start: repair the donor hint onto this instance. If the repaired
	// (and justified) schedule already certifies the gap target against the
	// cheap lower bound, the improver and exact stages are skipped — the
	// sweep engine's main cross-point throughput lever. Otherwise the warm
	// candidate seeds the improver alongside the heuristic portfolio.
	var warmList, warmOpts []int
	if cfg.Warm != nil {
		if c, okSeed := cfg.Warm.seed(p); okSeed {
			wsp := sctx.StartSpan("warmstart")
			ws, okDecode := newSGS(p).decode(c.list, c.opts)
			if okDecode {
				octx.Counter(obs.MSweepWarmUsed).Inc()
				if j := Justify(p, ws); j.Makespan < ws.Makespan {
					ws = j
				}
				warmGap := 0.0
				if ws.Makespan > 0 {
					warmGap = float64(ws.Makespan-lb) / float64(ws.Makespan)
				}
				wsp.ArgInt("makespan", ws.Makespan).Arg("gap", warmGap)
				if warmGap <= cfg.GapTarget && ws.Validate(p) == nil {
					wsp.End()
					octx.Counter(obs.MSweepWarmShortcut).Inc()
					rt.Incumbent(1, float64(ws.Makespan))
					stageEv("warmstart", 1, float64(ws.Makespan))
					proven := ws.Makespan == lb
					octx.Gauge(obs.MLowerBoundSteps).Set(float64(lb))
					octx.Gauge(obs.MMakespanSteps).Set(float64(ws.Makespan))
					sp.ArgInt("makespan", ws.Makespan).ArgInt("lower_bound", lb).ArgStr("method", "warmstart")
					rt.Certify(float64(ws.Makespan), float64(lb), proven)
					return Result{Schedule: ws, LowerBound: lb, Proven: proven, Method: "warmstart",
						Cancelled: ctx.Err() != nil && !proven}, nil
				}
				warmList, warmOpts = c.list, c.opts
			}
			wsp.End()
		}
	}

	var (
		best     Schedule
		ok       bool
		improver string
	)
	switch cfg.Improver {
	case "tabu":
		best, ok = TabuSearch(ctx, p, TabuConfig{
			Iterations: int(cfg.Effort * float64(1000+150*len(p.Tasks))),
			Seed:       cfg.Seed,
			SeedList:   warmList,
			SeedOpts:   warmOpts,
			StopBelow:  cfg.refineBelow,
			Obs:        sctx,
		})
		improver = "tabu"
	case "", "anneal":
		best, ok = Anneal(ctx, p, AnnealConfig{
			Iterations: int(cfg.Effort * float64(2000+400*len(p.Tasks))),
			Restarts:   cfg.Restarts,
			Seed:       cfg.Seed,
			SeedList:   warmList,
			SeedOpts:   warmOpts,
			StopBelow:  cfg.refineBelow,
			Obs:        sctx,
		})
		improver = "anneal"
	default:
		return Result{}, fmt.Errorf("scheduler: unknown improver %q (want anneal or tabu)", cfg.Improver)
	}
	if !ok {
		return Result{}, fmt.Errorf("%w: a task's every option exceeds a resource capacity", ErrInfeasible)
	}
	rt.Incumbent(1, float64(best.Makespan))
	stageEv(improver, 1, float64(best.Makespan))
	method := improver

	// The improver only ends below refineBelow by stopping there. Later
	// stages can only lower the makespan, so the adaptive loop refines past
	// this solve either way: return the incumbent as is.
	stopped := best.Makespan < cfg.refineBelow

	// Double justification: a cheap pass that never hurts and often shaves
	// steps off the improved schedule.
	if !stopped {
		if j := Justify(p, best); j.Makespan < best.Makespan {
			best = j
			method += "+justify"
			rt.Incumbent(2, float64(best.Makespan))
			stageEv("justify", 2, float64(best.Makespan))
		}
	}

	proven := best.Makespan == lb
	nodes := 0

	gap := func() float64 {
		if best.Makespan == 0 {
			return 0
		}
		return float64(best.Makespan-lb) / float64(best.Makespan)
	}

	// Destructive lower bounding tightens the certificate when the cheap
	// combinatorial bounds leave a gap. Skipped once the context is done:
	// the cheap bound already certifies a (looser) gap.
	if !stopped && !proven && gap() > cfg.GapTarget && ctx.Err() == nil {
		dsp := sctx.StartSpan("destructive-lb")
		if d := DestructiveLowerBound(ctx, p, best.Makespan); d > lb {
			lb = d
			proven = best.Makespan == lb
			rt.Bound(3, float64(lb))
			stageEv("destructive-lb", 3, float64(lb))
		}
		dsp.ArgInt("lower_bound", lb)
		dsp.End()
	}

	if !stopped && !proven && gap() > cfg.GapTarget && ctx.Err() == nil {
		// The exact stage span is recorded even when the search is skipped,
		// so traces show why a gap was left uncertified.
		xsp := sctx.StartSpan("exact")
		if len(p.Tasks) <= cfg.ExactTaskLimit {
			ex := SolveExact(ctx, p, ExactConfig{NodeLimit: cfg.ExactNodeLimit, UpperBound: best.Makespan, Obs: sctx.WithSpan(xsp)})
			nodes = ex.Nodes
			if ex.Found {
				best = ex.Schedule
				method = "exact"
				rt.Incumbent(4, float64(best.Makespan))
				stageEv("exact", 4, float64(best.Makespan))
			}
			if ex.Exhausted {
				proven = true
				lb = best.Makespan
				rt.Bound(4, float64(lb))
				if !ex.Found {
					method = improver + "+exact-proof"
				}
			}
		} else {
			xsp.ArgStr("skipped", "task-limit").ArgInt("tasks", len(p.Tasks)).ArgInt("limit", cfg.ExactTaskLimit)
		}
		xsp.End()
	}

	if err := best.Validate(p); err != nil {
		return Result{}, fmt.Errorf("scheduler: internal error, produced invalid schedule: %w", err)
	}
	cancelled := ctx.Err() != nil && !proven
	octx.Gauge(obs.MLowerBoundSteps).Set(float64(lb))
	octx.Gauge(obs.MMakespanSteps).Set(float64(best.Makespan))
	sp.ArgInt("makespan", best.Makespan).ArgInt("lower_bound", lb).ArgStr("method", method)
	rt.Certify(float64(best.Makespan), float64(lb), proven)
	return Result{Schedule: best, LowerBound: lb, Proven: proven, Method: method, Nodes: nodes, Cancelled: cancelled, stopped: stopped}, nil
}
