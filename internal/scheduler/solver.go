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
	// Effort scales the anneal and tabu budgets; 1.0 is the default budget
	// and 0 selects it. Larger values spend proportionally more iterations.
	Effort float64
	// GapTarget is the relative optimality gap the solve tries to certify
	// (the paper uses 0.10). 0 selects 0.10.
	GapTarget float64
	// ExactTaskLimit enables the exact branch-and-bound when the instance
	// has at most this many tasks. 0 selects a default of 12.
	ExactTaskLimit int
	// ExactNodeLimit caps exact-search nodes. 0 selects a default. It is
	// also the MILP's node cap, where 0 selects the milp package's default.
	ExactNodeLimit int
	// Restarts is the number of annealing restarts. 0 selects 2.
	Restarts int
	// Improver names Solve's improve stage: "anneal" (simulated annealing,
	// the default), "tabu" (tabu search) or "milp" (the time-indexed MILP
	// solved by branch and bound, which certifies its own result: it reads
	// GapTarget as its gap tolerance, where 0 proves optimality, and ignores
	// Warm, Effort and Restarts). Unknown names are an error; see Improver.
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
	// finer step. The anneal and tabu improvers return as soon as their
	// incumbent falls below it, and Solve skips justification and
	// certification. Unexported, so only the loop sets it (WithRefineBelow);
	// it is not a caller option.
	refineBelow int
}

// WithRefineBelow returns cfg with the early-exit threshold of a coarse
// refinement solve set to steps (0 disables it). Stopped reports whether a
// solve took the exit.
func WithRefineBelow(cfg Config, steps int) Config {
	cfg.refineBelow = steps
	return cfg
}

// withDefaults fills the defaults of the stages around the improver; the
// improvers fill their own.
func (c Config) withDefaults() Config {
	if c.GapTarget == 0 {
		c.GapTarget = 0.10
	}
	if c.ExactTaskLimit == 0 {
		c.ExactTaskLimit = 12
	}
	if c.ExactNodeLimit == 0 {
		c.ExactNodeLimit = 500_000
	}
	return c
}

// Result is the outcome of Solve: the best schedule found, the proven lower
// bound, and how both were obtained.
type Result struct {
	Schedule   Schedule
	LowerBound int
	// Proven is true when LowerBound meets the makespan, which proves the
	// schedule optimal, whichever improver or stage found either.
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
func (r Result) Gap() float64 { return gap(r.Schedule.Makespan, r.LowerBound) }

// gap is the relative optimality gap of a makespan over a lower bound.
func gap(makespan, lb int) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(makespan-lb) / float64(makespan)
}

// ErrInfeasible is returned when no feasible schedule exists (some task has
// no option whose demand fits within resource capacities).
var ErrInfeasible = errors.New("scheduler: no feasible schedule exists")

// Solve runs the layered strategy with the improver cfg.Improver names (see
// Improver). It is a fixed sequence of stages, each reporting its outcome
// through one function (solveRun.record):
//
//	bounds -> warm start -> improve -> justify -> destructive LB -> exact
//
// Combinatorial lower bounds come first; a warm-start hint that already
// certifies the gap target ends the solve; the improver searches from the
// priority-rule heuristics; justification, destructive lower bounding and
// exact branch and bound (small instances) then tighten a heuristic
// improver's incumbent and certificate. It mirrors the role of the ILP
// solver invocation in the paper's Figure 1.
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
func Solve(ctx context.Context, p *Problem, cfg Config) (Result, error) {
	solve, err := Improver(cfg.Improver)
	if err != nil {
		return Result{}, err
	}
	return solve(ctx, p, cfg, false)
}

// solveRun is one Solve call moving through the stages: the instance, the
// stage settings, the run's telemetry handle and the certificate so far.
type solveRun struct {
	ctx  context.Context
	p    *Problem
	cfg  Config // with the stage defaults filled
	run  obs.SolverRun
	octx *obs.Context // under the run's span: stage spans and the improver nest in it

	Result
}

// solve runs the stages with improver imp, named name. cfg reaches the
// improver as given, since improvers fill their own defaults.
func solve(ctx context.Context, p *Problem, cfg Config, name string, imp improver, retry bool) (res Result, err error) {
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

	cfg.Obs.Counter(obs.MSolves).Inc()
	s := &solveRun{ctx: ctx, p: p, cfg: cfg.withDefaults(), run: cfg.Obs.StartSolver(ctx, "solve")}
	defer s.run.End()
	s.octx = cfg.Obs.WithSpan(s.run.Span().ArgInt("tasks", len(p.Tasks)))

	bsp := s.octx.StartSpan("bounds")
	s.LowerBound = LowerBound(p)
	s.record(bsp, "bounds", 0, true, s.LowerBound)
	bsp.End()

	var warm candidate
	if cfg.Warm != nil && !imp.certifies() {
		var done bool
		if warm, done = s.warmStart(cfg.Warm); done {
			return s.result(), nil
		}
	}

	cfg.Obs = s.octx
	out, err := imp.improve(ctx, p, cfg, warm, retry)
	if err != nil {
		return Result{}, err
	}
	s.Schedule, s.Method, s.stopped = out.best, name, out.stopped
	s.record(obs.Span{}, name, 1, false, s.Schedule.Makespan)
	if out.bound > s.LowerBound {
		s.LowerBound = out.bound
		s.record(obs.Span{}, name, 1, true, out.bound)
	}
	s.Proven = s.Schedule.Makespan == s.LowerBound
	// A stopped improver's incumbent is below the refinement threshold, and
	// later stages only lower the makespan: the adaptive loop refines past
	// this solve either way, so it is returned as is.
	if !imp.certifies() && !s.stopped {
		s.justify()
		s.destructiveLB()
		s.exact(name)
	}
	if err := s.Schedule.Validate(p); err != nil {
		return Result{}, fmt.Errorf("scheduler: internal error, produced invalid schedule: %w", err)
	}
	return s.result(), nil
}

// record reports one stage outcome v, an incumbent makespan or (bound set) a
// lower bound: as an arg of the stage's span sp, and through the run handle
// at stage index idx (0 bounds, 1 warm start or improver, 2 justify, 3
// destructive LB, 4 exact), which records it and publishes it as a "stage"
// bus event.
func (s *solveRun) record(sp obs.Span, stage string, idx int, bound bool, v int) {
	kind, arg := obs.EvIncumbent, "makespan"
	if bound {
		kind, arg = obs.EvBound, "lower_bound"
	}
	sp.ArgInt(arg, v)
	s.run.Stage(stage, kind, idx, float64(v))
}

// result ends the solve: the step gauges, the solve span's outcome args and
// the recorder's gap certificate, then the Result itself.
func (s *solveRun) result() Result {
	ms, lb := s.Schedule.Makespan, s.LowerBound
	s.octx.Gauge(obs.MLowerBoundSteps).Set(float64(lb))
	s.octx.Gauge(obs.MMakespanSteps).Set(float64(ms))
	s.run.Span().ArgInt("makespan", ms).ArgInt("lower_bound", lb).ArgStr("method", s.Method)
	s.run.Certify(float64(ms), float64(lb), s.Proven)
	s.Cancelled = s.ctx.Err() != nil && !s.Proven
	return s.Result
}

// warmStart repairs the donor hint onto the instance. If the repaired (and
// justified) schedule already certifies the gap target against the cheap
// lower bound, it becomes the result (Method "warmstart") and done is set:
// the improver and later stages are skipped, the sweep engine's main
// cross-point throughput lever. Otherwise the hint's candidate seeds the
// improver alongside the heuristic portfolio.
func (s *solveRun) warmStart(hint *WarmStart) (warm candidate, done bool) {
	c, ok := hint.seed(s.p)
	if !ok {
		return candidate{}, false
	}
	wsp := s.octx.StartSpan("warmstart")
	defer wsp.End()
	ws, ok := newSGS(s.p).decode(c.list, c.opts)
	if !ok {
		return candidate{}, false
	}
	s.octx.Counter(obs.MSweepWarmUsed).Inc()
	if j := Justify(s.p, ws); j.Makespan < ws.Makespan {
		ws = j
	}
	warmGap := gap(ws.Makespan, s.LowerBound)
	wsp.ArgInt("makespan", ws.Makespan).Arg("gap", warmGap)
	if warmGap > s.cfg.GapTarget || ws.Validate(s.p) != nil {
		return c, false
	}
	s.octx.Counter(obs.MSweepWarmShortcut).Inc()
	s.Schedule, s.Method, s.Proven = ws, "warmstart", ws.Makespan == s.LowerBound
	s.record(obs.Span{}, "warmstart", 1, false, ws.Makespan)
	return candidate{}, true
}

// justify is double justification: a cheap pass that never hurts and often
// shaves steps off the improved schedule.
func (s *solveRun) justify() {
	if j := Justify(s.p, s.Schedule); j.Makespan < s.Schedule.Makespan {
		s.Schedule, s.Method, s.Proven = j, s.Method+"+justify", j.Makespan == s.LowerBound
		s.record(obs.Span{}, "justify", 2, false, j.Makespan)
	}
}

// certifying reports whether the gap is still open past the target with
// time left to close it, the condition of the destructive-LB and exact
// stages. Once the context is done the cheap bound already certifies a
// (looser) gap.
func (s *solveRun) certifying() bool {
	return !s.Proven && s.Gap() > s.cfg.GapTarget && s.ctx.Err() == nil
}

// destructiveLB tightens the certificate when the cheap combinatorial bounds
// leave a gap.
func (s *solveRun) destructiveLB() {
	if !s.certifying() {
		return
	}
	dsp := s.octx.StartSpan("destructive-lb")
	defer dsp.End()
	if d := DestructiveLowerBound(s.ctx, s.p, s.Schedule.Makespan); d > s.LowerBound {
		s.LowerBound, s.Proven = d, s.Schedule.Makespan == d
		s.record(dsp, "destructive-lb", 3, true, d)
	}
}

// exact finishes small instances with branch and bound: a better schedule,
// a proof for the incumbent of improver name, or both. Its span is recorded
// even when the search is skipped, so traces show why a gap was left
// uncertified.
func (s *solveRun) exact(name string) {
	if !s.certifying() {
		return
	}
	xsp := s.octx.StartSpan("exact")
	defer xsp.End()
	if len(s.p.Tasks) > s.cfg.ExactTaskLimit {
		xsp.ArgStr("skipped", "task-limit").ArgInt("tasks", len(s.p.Tasks)).ArgInt("limit", s.cfg.ExactTaskLimit)
		return
	}
	ex := SolveExact(s.ctx, s.p, ExactConfig{NodeLimit: s.cfg.ExactNodeLimit, UpperBound: s.Schedule.Makespan, Obs: s.octx.WithSpan(xsp)})
	s.Nodes = ex.Nodes
	if ex.Found {
		s.Schedule, s.Method = ex.Schedule, "exact"
		s.record(obs.Span{}, "exact", 4, false, s.Schedule.Makespan)
	}
	if ex.Exhausted {
		s.Proven, s.LowerBound = true, s.Schedule.Makespan
		s.record(obs.Span{}, "exact", 4, true, s.LowerBound)
		if !ex.Found {
			s.Method = name + "+exact-proof"
		}
	}
}
