// Package hilp is a from-scratch Go implementation of HILP, the
// workload-level-parallelism-aware early-stage design-space exploration
// approach for heterogeneous SoCs (Rogers, Eeckhout, Jahre - HPCA 2025).
//
// HILP's key observation is that scheduling a workload of independent
// multi-phase applications on a heterogeneous SoC is an instance of the
// job-shop scheduling problem, so it can be solved to near-optimality with
// integer linear programming. This package bundles the complete stack:
//
//   - a pure-Go optimization substrate (simplex/branch-and-bound MILP and an
//     RCPSP-style CP search with certified optimality gaps),
//   - the paper's SoC architecture template (CPUs, a DVFS-capable GPU, and
//     per-application DSAs) with its area, power, and bandwidth models,
//   - the Rodinia workload data of Table II/III and the three evaluation
//     workloads,
//   - baselines (MultiAmdahl and parallel-mode Gables), design-space sweeps,
//     and Pareto-front extraction,
//   - arbitrary dependency graphs with fork-join parallelism and initiation
//     intervals (the paper's §VII extension).
//
// Quick start:
//
//	w := hilp.DefaultWorkload()
//	spec := hilp.SoC{CPUCores: 4, GPUSMs: 16, DSAs: []hilp.DSA{{PEs: 16, Target: "LUD"}}}
//	res, err := hilp.Solve(context.Background(), w, spec)
//	if err != nil { ... }
//	fmt.Printf("speedup %.1fx, WLP %.2f, gap %.1f%%\n", res.Speedup, res.WLP, 100*res.Gap)
//
// Solve evaluates one design point and SolveBatch a whole design space;
// SolveInstanceContext and SolveModelContext solve built instances and
// custom models. All of them take a context first: cancelling it (or
// letting its deadline expire) stops the solve early and returns the best
// incumbent found so far with a valid optimality-gap certificate, never an
// error. Functional options (WithProfile, WithSolver, WithObs,
// WithBaseline, WithWorkers, WithCache, WithWarmStart, WithPruning, ...)
// select resolution, solver effort, observability, the evaluation model,
// and the sweep engine's cross-point reuse. SolveBatch amortizes work
// across the batch: canonical-model memoization and neighbor warm starts
// over the spec lattice (both on by default), and certified dominance
// pruning (opt-in).
package hilp

import (
	"context"

	"hilp/internal/baselines"
	"hilp/internal/core"
	"hilp/internal/dag"
	"hilp/internal/dse"
	"hilp/internal/obs"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
	"hilp/internal/workgen"
)

// Workload is a set of independent multi-phase applications (the paper's A).
type Workload = rodinia.Workload

// Application is one member of a workload.
type Application = rodinia.Application

// Benchmark is one of the ten profiled Rodinia benchmarks (Table II).
type Benchmark = rodinia.Benchmark

// SoC specifies a heterogeneous SoC in the paper's template (Fig. 4).
type SoC = soc.Spec

// DSA is a domain-specific accelerator dedicated to one application.
type DSA = soc.DSA

// SpaceConfig parameterizes design-space enumeration (§VI).
type SpaceConfig = soc.SpaceConfig

// Result is a complete HILP evaluation of one (workload, SoC) pair.
type Result = core.Result

// Profile controls the adaptive time-step resolution loop (§III-D).
type Profile = core.Profile

// SolverConfig tunes the scheduling search.
type SolverConfig = scheduler.Config

// Schedule is a start-time and placement assignment for every phase.
type Schedule = scheduler.Schedule

// Point is one evaluated SoC in a design-space sweep.
type Point = dse.Point

// Mix classifies an SoC's accelerator area mix.
type Mix = dse.Mix

// MAResult is a MultiAmdahl baseline evaluation.
type MAResult = baselines.MAResult

// CustomModel describes an arbitrary workload and SoC directly (§VII).
type CustomModel = core.CustomModel

// CustomCluster, CustomTask, CustomDep, and CustomOption are the pieces of a
// CustomModel.
type (
	CustomCluster = core.CustomCluster
	CustomTask    = core.CustomTask
	CustomDep     = core.CustomDep
	CustomOption  = core.CustomOption
)

// Graph builds arbitrary phase-dependency DAGs (§VII, Eq. 9).
type Graph = dag.Graph

// Instance is a built scheduling instance with rendering helpers.
type Instance = core.Instance

// ErrBadModel is the sentinel wrapped by every input-validation failure:
// NaN/Inf/negative fields, dimension mismatches, unknown references, empty
// compatibility rows, dependency cycles. Match with errors.Is; the individual
// problems are recovered with errors.As on *ValidationError.
var ErrBadModel = core.ErrBadModel

// FieldError addresses one invalid input field by JSON-style path (e.g.
// "tasks[2].options[1].sec") with a stable machine-readable code.
type FieldError = core.FieldError

// ValidationError aggregates every FieldError found in one validation pass.
type ValidationError = core.ValidationError

// PanicError is a solver panic converted into an error at one of the stack's
// recover boundaries (scheduler.Solve, sweep workers, Solve itself, the
// hilp-serve pool), with the goroutine stack attached.
type PanicError = scheduler.PanicError

// Accelerator mix classes (paper Fig. 7 color coding).
const (
	NoAccel      = dse.NoAccel
	GPUDominated = dse.GPUDominated
	DSADominated = dse.DSADominated
	MixedAccel   = dse.MixedAccel
)

// Adaptive-resolution profiles from the paper's §III-D.
var (
	// ValidationProfile: 2 s steps, 1,000-step horizon (paper §V).
	ValidationProfile = core.ValidationProfile
	// DSEProfile: 10 s steps, 200-step horizon (paper §VI).
	DSEProfile = core.DSEProfile
)

// RodiniaWorkload returns the paper's Rodinia workload (measured
// setup/teardown times).
func RodiniaWorkload() Workload { return rodinia.RodiniaWorkload() }

// DefaultWorkload returns the paper's Default workload (setup/teardown 5x
// smaller); it drives the §VI design-space exploration.
func DefaultWorkload() Workload { return rodinia.DefaultWorkload() }

// OptimizedWorkload returns the paper's Optimized workload (setup/teardown
// 20x smaller).
func OptimizedWorkload() Workload { return rodinia.OptimizedWorkload() }

// Benchmarks returns the paper's Table II.
func Benchmarks() []Benchmark { return rodinia.Benchmarks() }

// MultiAmdahl evaluates the workload with the MultiAmdahl baseline (fixed
// sequential phase order, WLP = 1). Unlike Solve with
// WithBaseline(BaselineMultiAmdahl), it returns the model's native result
// with per-phase placement choices.
func MultiAmdahl(w Workload, spec SoC) (MAResult, error) {
	return baselines.MultiAmdahl(w, spec)
}

// DesignSpace enumerates the §VI SoC design space for the workload (the
// paper's 372 configurations under the default SpaceConfig).
func DesignSpace(w Workload, cfg SpaceConfig) []SoC {
	return soc.DesignSpace(w, cfg)
}

// Observability re-exports: thread an *ObsContext through WithObs (or
// SolverConfig.Obs) to trace and meter the entire solve stack. See
// internal/obs for span and metric semantics.
type (
	// ObsContext carries tracing/metrics sinks through the solver layers.
	ObsContext = obs.Context
	// Tracer records hierarchical spans, exportable as Chrome trace JSON.
	Tracer = obs.Tracer
	// MetricsRegistry holds named counters, gauges, and histograms.
	MetricsRegistry = obs.Registry
	// Recorder is the solver flight recorder: it captures timestamped
	// incumbent/bound/temperature events per solve, yielding convergence
	// curves and final gap certificates for run reports.
	Recorder = obs.Recorder
	// SolveRecord is one solve's recorded event stream plus certificate.
	SolveRecord = obs.SolveRecord
	// GapCertificate is a solve's final incumbent/bound pair.
	GapCertificate = obs.Certificate
	// SweepProgress is one live update of a running sweep.
	SweepProgress = dse.Progress
	// BatchResult is the outcome of SolveBatch: points in input order plus
	// the sweep engine's reuse statistics.
	BatchResult = dse.BatchResult
	// BatchStats counts what the sweep engine reused across one batch
	// (cache hits, warm-started solves, pruned points).
	BatchStats = dse.BatchStats
)

// NewTracer returns a wall-clock span tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewRecorder returns an empty solver flight recorder; attach it via
// ObsContext.Recorder to capture convergence events from a solve.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// ParetoFront extracts the (area, speedup) Pareto-optimal points.
func ParetoFront(points []Point) []Point { return dse.ParetoFront(points) }

// BestPoint returns the highest-speedup point of a sweep.
func BestPoint(points []Point) (Point, bool) { return dse.Best(points) }

// NewGraph starts a phase-dependency graph for custom workloads (§VII).
func NewGraph(name string) *Graph { return dag.New(name) }

// SDA builds the paper's §VII streaming-dataflow case study.
func SDA(cfg dag.SDAConfig) (CustomModel, error) { return dag.SDA(cfg) }

// SDAConfig parameterizes the SDA case study.
type SDAConfig = dag.SDAConfig

// WorkloadGenConfig shapes synthetic workload generation.
type WorkloadGenConfig = workgen.Config

// GenerateWorkload synthesizes a workload of multi-phase applications for
// stress tests and sensitivity studies beyond the Rodinia set.
func GenerateWorkload(cfg WorkloadGenConfig) (Workload, error) { return workgen.Generate(cfg) }

// HeavyTailedWorkload generates a workload where a few applications
// dominate compute time.
func HeavyTailedWorkload(seed int64, apps int) (Workload, error) {
	return workgen.HeavyTailed(seed, apps)
}

// UniformWorkload generates a workload of similarly sized applications.
func UniformWorkload(seed int64, apps int) (Workload, error) {
	return workgen.Uniform(seed, apps)
}

// BuildInstance expands a (workload, SoC) pair into a solvable instance at
// an explicit resolution, for what-if pinning (Instance.PinPhase and
// friends) before solving with SolveInstanceContext.
func BuildInstance(w Workload, spec SoC, stepSec float64, horizon int) (*Instance, error) {
	return core.BuildInstance(w, spec, stepSec, horizon)
}

// SolveInstanceContext solves a built (possibly pinned) instance. Cancelling
// ctx returns the best incumbent found so far with Result.Cancelled set. The
// solve runs through the fault-tolerance chain: transient solver failures are
// retried and then degraded to the heuristic scheduler (Result.Degraded set)
// rather than surfaced as errors.
func SolveInstanceContext(ctx context.Context, in *Instance, cfg SolverConfig) (scheduler.Result, error) {
	return core.SolveProblem(ctx, in.Problem, cfg)
}

// SolveModelContext builds and solves a custom model at the given time-step
// resolution. Cancelling ctx returns the best incumbent found so far with
// Result.Cancelled set. Invalid models fail with an error wrapping
// ErrBadModel; transient solver failures are retried and then degraded to the
// heuristic scheduler (Result.Degraded set).
func SolveModelContext(ctx context.Context, m CustomModel, stepSec float64, horizon int, cfg SolverConfig) (*Instance, scheduler.Result, error) {
	inst, err := m.Build(stepSec, horizon)
	if err != nil {
		return nil, scheduler.Result{}, err
	}
	res, err := core.SolveProblem(ctx, inst.Problem, cfg)
	if err != nil {
		return nil, scheduler.Result{}, err
	}
	return inst, res, nil
}
