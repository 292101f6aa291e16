// Package dse runs design-space sweeps over SoC configurations with HILP,
// MultiAmdahl, or Gables as the evaluation model, extracts area/performance
// Pareto fronts, and classifies accelerator mixes the way the paper
// color-codes its Figure 7 (GPU-dominated, DSA-dominated, mixed).
package dse

import (
	"context"
	"sort"
	"time"

	"hilp/internal/baselines"
	"hilp/internal/core"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

// Mix classifies the accelerator area mix of an SoC (paper Fig. 7: a point
// is GPU-dominated when the GPU takes > 75% of accelerator area,
// DSA-dominated when DSAs do, mixed otherwise).
type Mix int

// Accelerator mixes.
const (
	NoAccel Mix = iota
	GPUDominated
	DSADominated
	MixedAccel
)

// String names the mix.
func (m Mix) String() string {
	switch m {
	case NoAccel:
		return "cpu-only"
	case GPUDominated:
		return "gpu-dominated"
	case DSADominated:
		return "dsa-dominated"
	case MixedAccel:
		return "mixed"
	}
	return "unknown"
}

// Classify computes the accelerator mix of a spec.
func Classify(s soc.Spec) Mix {
	gpuArea := float64(s.GPUSMs) * soc.GPUSMAreaMM2
	dsaArea := 0.0
	for _, d := range s.DSAs {
		dsaArea += float64(d.PEs) * soc.DSAPEAreaMM2
	}
	total := gpuArea + dsaArea
	switch {
	case total == 0:
		return NoAccel
	case gpuArea > 0.75*total:
		return GPUDominated
	case dsaArea > 0.75*total:
		return DSADominated
	default:
		return MixedAccel
	}
}

// Point is one evaluated SoC configuration.
type Point struct {
	Spec        soc.Spec
	Label       string
	AreaMM2     float64
	Speedup     float64
	WLP         float64
	Gap         float64
	MakespanSec float64
	Mix         Mix
	// Cancelled is true when the evaluation was cut short by context
	// cancellation: the metrics are the best incumbent's, not converged ones.
	Cancelled bool
	// Degraded is true when the point's solve fell back to the heuristic
	// scheduler after the primary solver failed; the metrics are valid but
	// the gap is typically looser.
	Degraded bool
	// FallbackReason classifies the degradation; empty unless Degraded.
	FallbackReason string
	// RequestID is the point's correlation ID: every log line, span, and
	// metric exemplar the point's solve emitted carries it. Under a
	// request-scoped sweep (hilp-serve) it extends the request's ID as
	// "<request>/p<i>"; standalone observed sweeps generate fresh IDs; fully
	// disabled sweeps leave it empty.
	RequestID string
	// CacheHit marks a point whose metrics were replayed byte-identically
	// from an earlier canonically-equivalent point of the same batch (the
	// RequestID is the donor's, tying the hit to the logs that actually
	// produced the numbers).
	CacheHit bool
	// WarmStarted marks a point whose search was seeded with a solved
	// neighbor's repaired schedule.
	WarmStarted bool
	// Pruned marks a point skipped by dominance pruning: it was never
	// solved, so Speedup/WLP/Gap/MakespanSec are zero. Instead SpeedupBound
	// certifies the best speedup the point could possibly achieve (from a
	// discretization-independent lower bound) and PrunedBy names the solved
	// point whose resource vector dominates this one. ParetoFront and Best
	// skip pruned points; the certificate guarantees they could not have
	// entered the front.
	Pruned       bool
	PrunedBy     string
	SpeedupBound float64
	// Resumed marks a point replayed verbatim from a crash-recovery journal
	// (BatchOptions.Resume) instead of re-solved. Identity fields (Spec,
	// Label, AreaMM2, Mix) are recomputed from the current spec; the metrics
	// are the prior run's.
	Resumed bool
	Err     error
}

// Evaluator scores one SoC configuration. The context bounds the
// evaluation; implementations built on core.Solve return their best
// incumbent (with Point.Err nil) when it is cancelled mid-solve.
type Evaluator func(ctx context.Context, s soc.Spec) Point

// Progress is one live update of a running sweep, delivered after every
// completed evaluation.
type Progress struct {
	// Done and Total count completed and requested evaluations.
	Done, Total int
	// Best is the highest-speedup successful point so far; HasBest is false
	// until one succeeds.
	Best    Point
	HasBest bool
	// Elapsed is the wall-clock time since the sweep started; ETA is the
	// remaining time extrapolated from the completed points.
	Elapsed, ETA time.Duration
}

// ParetoFront returns the subset of points that are Pareto-optimal for
// (minimize area, maximize speedup), sorted by ascending area. Errored and
// pruned points are excluded (a pruned point's certificate guarantees it
// could not have entered the front).
func ParetoFront(points []Point) []Point {
	var ok []Point
	for _, p := range points {
		if p.Err == nil && !p.Pruned {
			ok = append(ok, p)
		}
	}
	sort.Slice(ok, func(i, j int) bool {
		if ok[i].AreaMM2 != ok[j].AreaMM2 {
			return ok[i].AreaMM2 < ok[j].AreaMM2
		}
		return ok[i].Speedup > ok[j].Speedup
	})
	var front []Point
	best := -1.0
	for _, p := range ok {
		if p.Speedup > best+1e-12 {
			front = append(front, p)
			best = p.Speedup
		}
	}
	return front
}

// Best returns the highest-speedup point, breaking ties toward smaller area.
// The boolean is false when no point evaluated successfully.
func Best(points []Point) (Point, bool) {
	found := false
	var best Point
	for _, p := range points {
		if p.Err != nil || p.Pruned {
			continue
		}
		if !found || p.Speedup > best.Speedup+1e-12 ||
			(p.Speedup > best.Speedup-1e-12 && p.AreaMM2 < best.AreaMM2) {
			best = p
			found = true
		}
	}
	return best, found
}

// GablesEvaluator builds an Evaluator that scores SoCs with parallel-mode
// Gables.
func GablesEvaluator(w rodinia.Workload, profile core.Profile, cfg scheduler.Config) Evaluator {
	return func(ctx context.Context, s soc.Spec) Point {
		res, err := baselines.Gables(ctx, w, s, profile, cfg)
		return pointOf(s, res, err)
	}
}

// MAEvaluator builds an Evaluator that scores SoCs with MultiAmdahl.
func MAEvaluator(w rodinia.Workload) Evaluator {
	return func(ctx context.Context, s soc.Spec) Point {
		_ = ctx // MultiAmdahl is analytic: nothing to cancel
		p := newPoint(s)
		res, err := baselines.MultiAmdahl(w, s)
		if err != nil {
			p.Err = err
			return p
		}
		p.Speedup = res.Speedup
		p.WLP = res.WLP
		p.MakespanSec = res.MakespanSec
		return p
	}
}

func newPoint(s soc.Spec) Point {
	return Point{Spec: s, Label: s.Label(), AreaMM2: s.AreaMM2(), Mix: Classify(s)}
}

// pointOf fills spec s's point from a scheduling evaluation (HILP or
// Gables): the error, or the result's metrics and its cancellation and
// degradation flags.
func pointOf(s soc.Spec, res *core.Result, err error) Point {
	p := newPoint(s)
	if err != nil {
		p.Err = err
		return p
	}
	p.Speedup = res.Speedup
	p.WLP = res.WLP
	p.Gap = res.Gap
	p.MakespanSec = res.MakespanSec
	p.Cancelled = res.Cancelled
	p.Degraded = res.Degraded
	p.FallbackReason = res.FallbackReason
	return p
}
