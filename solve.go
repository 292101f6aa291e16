package hilp

import (
	"context"

	"hilp/internal/baselines"
	"hilp/internal/core"
	"hilp/internal/dse"
	"hilp/internal/scheduler"
)

// Baseline selects the evaluation model Solve and SolveBatch apply to a
// design point. HILP is the default; Gables and MultiAmdahl are the two
// state-of-the-art early-stage models the paper compares against (§V).
type Baseline int

// Evaluation models.
const (
	// BaselineHILP is the paper's WLP-aware scheduling model (the default).
	BaselineHILP Baseline = iota
	// BaselineGables discards phase dependencies and the power budget,
	// modelling maximal workload-level parallelism.
	BaselineGables
	// BaselineMultiAmdahl serializes all phases (WLP = 1) and solves
	// analytically; the profile and solver options are ignored.
	BaselineMultiAmdahl
)

// String names the baseline.
func (b Baseline) String() string {
	switch b {
	case BaselineHILP:
		return "hilp"
	case BaselineGables:
		return "gables"
	case BaselineMultiAmdahl:
		return "multiamdahl"
	}
	return "unknown"
}

// Option customizes Solve and SolveBatch. The zero configuration evaluates
// with HILP at the DSE profile and default solver effort.
type Option func(*solveOptions)

type solveOptions struct {
	profile    Profile
	cfg        SolverConfig
	baseline   Baseline
	workers    int
	onProgress func(SweepProgress)
	onPoint    func(index int, p Point)
	resume     map[int]Point
	obs        *ObsContext
	// Sweep-engine features (SolveBatch only).
	cache, warm, prune bool
}

func buildOptions(opts []Option) solveOptions {
	o := solveOptions{profile: core.DSEProfile, cfg: scheduler.Config{Seed: 1}, cache: true, warm: true}
	for _, fn := range opts {
		fn(&o)
	}
	if o.obs != nil {
		o.cfg.Obs = o.obs
	}
	return o
}

// WithProfile sets the adaptive time-step resolution profile (§III-D).
func WithProfile(p Profile) Option {
	return func(o *solveOptions) { o.profile = p }
}

// WithSolver sets the scheduling-search configuration.
func WithSolver(cfg SolverConfig) Option {
	return func(o *solveOptions) { o.cfg = cfg }
}

// WithObs threads an observability context (tracing, metrics, flight
// recorder) through the whole solve stack, including sweep-level spans. It
// overrides any SolverConfig.Obs set via WithSolver.
func WithObs(octx *ObsContext) Option {
	return func(o *solveOptions) { o.obs = octx }
}

// WithBaseline selects the evaluation model; the default is BaselineHILP.
func WithBaseline(b Baseline) Option {
	return func(o *solveOptions) { o.baseline = b }
}

// WithWorkers sets the sweep fan-out (< 1 selects GOMAXPROCS). Solve
// ignores it.
func WithWorkers(n int) Option {
	return func(o *solveOptions) { o.workers = n }
}

// WithProgress installs a live progress callback for SolveBatch, invoked
// after every completed point. Solve ignores it.
func WithProgress(fn func(SweepProgress)) Option {
	return func(o *solveOptions) { o.onProgress = fn }
}

// WithCheckpoint installs a per-point checkpoint hook for SolveBatch: fn is
// called once for every completed point with its input index, serialized,
// covering solved, cached, and pruned points. It is the attachment point
// for the crash-recovery journal — hilp-dse and hilp-serve append a journal
// record from it — but any durable sink works. Points pre-filled via
// WithResume are not re-reported (they are already in whatever store fn
// writes to), and points never dispatched because the context was
// cancelled are not reported either. Solve ignores it.
func WithCheckpoint(fn func(index int, p Point)) Option {
	return func(o *solveOptions) { o.onPoint = fn }
}

// WithResume pre-fills completed points from a prior run, keyed by input
// index — the other half of crash recovery. Resumed points are marked
// Point.Resumed, counted in BatchStats.Resumed, and never dispatched, so a
// resumed SolveBatch re-solves strictly fewer points than it recovers. The
// caller is responsible for resuming against the same model (workload,
// specs, profile, solver); the binaries enforce this with a canonical model
// key recorded in the journal. Solve ignores it.
func WithResume(points map[int]Point) Option {
	return func(o *solveOptions) { o.resume = points }
}

// WithCache enables (or disables) canonical-model memoization across the
// points of one SolveBatch call: points whose canonical (workload,
// normalized spec) model hashes equal an earlier point's are replayed
// byte-identically instead of re-solved. Defaults to on. Solve ignores it.
func WithCache(on bool) Option {
	return func(o *solveOptions) { o.cache = on }
}

// WithWarmStart enables (or disables) neighbor warm starts: the sweep is
// ordered as a walk over the spec lattice and each point's search is seeded
// with the repaired incumbent schedule of its nearest already-solved
// neighbor, and its adaptive-resolution loop starts at the step that
// neighbor ended on. Warm-started solves keep their gap certificates — the
// seed only changes where the search starts, though a point may end one
// resolution finer than a cold solve would. HILP baseline only; defaults to
// on. Solve ignores it.
func WithWarmStart(on bool) Option {
	return func(o *solveOptions) { o.warm = on }
}

// WithPruning enables (or disables) certified dominance pruning: points
// whose resource vector is dominated by an already-solved point that met
// the gap target are skipped when a discretization-independent bound proves
// they could not enter the (area, speedup) Pareto front. Pruned points come
// back with Point.Pruned set and a SpeedupBound certificate instead of
// solved metrics. HILP baseline only; defaults to off. Solve ignores it.
func WithPruning(on bool) Option {
	return func(o *solveOptions) { o.prune = on }
}

// Solve evaluates the workload on the SoC under the selected baseline
// (HILP unless overridden with WithBaseline).
//
// Cancellation has anytime semantics: when ctx is cancelled or its deadline
// expires mid-solve, Solve returns its best incumbent so far — a feasible
// schedule with a valid (if loose) optimality-gap certificate — with
// Result.Cancelled set, rather than an error. Errors are reserved for
// invalid inputs and infeasible instances.
//
// Solve is a panic-isolation boundary: a panic escaping the evaluation stack
// (outside the solver's own recover) is converted into a *PanicError with the
// stack attached, so callers like hilp-serve and batch drivers never crash on
// one poisoned input.
func Solve(ctx context.Context, w Workload, spec SoC, opts ...Option) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, scheduler.NewPanicError("hilp.Solve", r)
		}
	}()
	o := buildOptions(opts)
	switch o.baseline {
	case BaselineGables:
		return baselines.Gables(ctx, w, spec, o.profile, o.cfg)
	case BaselineMultiAmdahl:
		ma, err := baselines.MultiAmdahl(w, spec)
		if err != nil {
			return nil, err
		}
		// MultiAmdahl is analytic: the result is exact, so the gap is zero
		// and there is no schedule or instance to attach.
		return &Result{
			MakespanSec: ma.MakespanSec,
			Speedup:     ma.Speedup,
			WLP:         ma.WLP,
		}, nil
	default:
		return core.Solve(ctx, w, spec, o.profile, o.cfg)
	}
}

// SolveBatch evaluates every spec under the selected baseline through the
// sweep engine, fanning out across WithWorkers goroutines, and returns the
// points in input order together with the engine's reuse statistics.
// Failed evaluations carry their error in Point.Err.
//
// Canonical-model memoization and neighbor warm starts default to on (turn
// them off with WithCache(false) / WithWarmStart(false) for a plain cold
// sweep); certified dominance pruning stays opt-in via WithPruning(true)
// because pruned points come back with a bound certificate instead of
// solved metrics. The analytic baselines only use memoization.
//
// Batches are result-equivalent to a cold sweep: cache hits are
// byte-identical replays of their donor point, warm-started solves carry
// their own valid gap certificates, and pruned points are certified
// Pareto-redundant. With WithWorkers(n > 1) the warm-start donor choice
// depends on completion order, so solved makespans may differ across runs
// within their certificates; use WithWorkers(1) for bit-reproducible
// batches.
//
// Cancellation and panic isolation follow Solve: cancelling ctx stops the
// engine dispatching new specs, in-flight points finish with their best
// incumbents (Point.Cancelled set), never-dispatched points carry the
// context error, and a panic escaping the stack is returned as *PanicError.
func SolveBatch(ctx context.Context, w Workload, specs []SoC, opts ...Option) (res *BatchResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, scheduler.NewPanicError("hilp.SolveBatch", r)
		}
	}()
	o := buildOptions(opts)
	bo := dse.BatchOptions{
		Workers:    o.workers,
		Obs:        o.obs,
		OnProgress: o.onProgress,
		OnPoint:    o.onPoint,
		Resume:     o.resume,
		Cache:      o.cache,
		WarmStart:  o.warm,
		Prune:      o.prune,
	}
	var br dse.BatchResult
	switch o.baseline {
	case BaselineGables:
		br = dse.Run(ctx, specs, bo, dse.GablesEvaluator(w, o.profile, o.cfg))
	case BaselineMultiAmdahl:
		br = dse.Run(ctx, specs, bo, dse.MAEvaluator(w))
	default:
		br = dse.RunHILP(ctx, w, specs, o.profile, o.cfg, bo)
	}
	return &br, nil
}
