// Package baselines implements the two state-of-the-art early-stage models
// the paper compares against: MultiAmdahl (fixed sequential phase order,
// minimal WLP) and parallel-mode Gables (dependencies discarded, maximal
// WLP). Both consume the same workload, SoC, and architecture models as
// HILP so the comparison is apples-to-apples.
package baselines

import (
	"context"
	"fmt"
	"math"

	"hilp/internal/core"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

// MAChoice records where MultiAmdahl ran one phase.
type MAChoice struct {
	Task  string
	Label string
	Sec   float64
}

// MAResult is a MultiAmdahl evaluation.
type MAResult struct {
	MakespanSec float64
	Speedup     float64
	WLP         float64 // always 1: MA assumes a fixed sequential order
	Choices     []MAChoice
}

// MultiAmdahl evaluates the workload under MA's assumption: every phase of
// every application executes in a fixed sequential order, each on the
// fastest compatible compute unit whose standalone power and bandwidth
// demands respect the budgets. Because at most one phase is ever active,
// constraints never interact and the model is solved analytically (as the
// original MA does); WLP is identically 1.
func MultiAmdahl(w rodinia.Workload, spec soc.Spec) (MAResult, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return MAResult{}, err
	}

	powerOK := func(watts, bwGBs float64) bool {
		total := watts + soc.MemoryPowerWatts(bwGBs)
		if !math.IsInf(spec.PowerBudgetWatts, 1) && total > spec.PowerBudgetWatts+1e-9 {
			return false
		}
		if !math.IsInf(spec.MemBandwidthGBs, 1) && bwGBs > spec.MemBandwidthGBs+1e-9 {
			return false
		}
		return true
	}

	res := MAResult{WLP: 1}
	for _, app := range w.Apps {
		b := app.Bench

		// Setup: one CPU core.
		if !powerOK(soc.CPUCoreWatts, 0) {
			return MAResult{}, fmt.Errorf("baselines: a single CPU core exceeds the %g W budget", spec.PowerBudgetWatts)
		}
		res.Choices = append(res.Choices, MAChoice{Task: b.Abbrev + ".setup", Label: "cpu", Sec: app.SetupSec()})
		res.MakespanSec += app.SetupSec()

		// Compute: fastest feasible unit.
		best := soc.Unit{Sec: math.Inf(1)}
		spec.ComputeUnits(b, func(u soc.Unit) {
			if u.Sec < best.Sec && powerOK(u.Watts, u.GBs) {
				best = u
			}
		})
		if math.IsInf(best.Sec, 1) {
			return MAResult{}, fmt.Errorf("baselines: no feasible unit for %s.compute under the constraints", b.Abbrev)
		}
		res.Choices = append(res.Choices, MAChoice{Task: b.Abbrev + ".compute", Label: best.Label(), Sec: best.Sec})
		res.MakespanSec += best.Sec

		// Teardown: one CPU core.
		res.Choices = append(res.Choices, MAChoice{Task: b.Abbrev + ".teardown", Label: "cpu", Sec: app.TeardownSec()})
		res.MakespanSec += app.TeardownSec()
	}

	if res.MakespanSec > 0 {
		res.Speedup = w.SequentialSingleCoreSec() / res.MakespanSec
	}
	return res, nil
}

// Gables evaluates the workload under parallel-mode Gables' assumption: all
// phase dependencies are discarded and every phase is free to execute
// concurrently, subject only to compute-unit exclusivity and the memory
// bandwidth budget (Gables, a Roofline derivative, models bandwidth but not
// power). The resulting optimistic schedule is found with the same solver
// HILP uses, on the same instance minus the dependency edges.
func Gables(ctx context.Context, w rodinia.Workload, spec soc.Spec, profile core.Profile, cfg scheduler.Config) (*core.Result, error) {
	spec = spec.Normalize()
	spec.PowerBudgetWatts = math.Inf(1) // Gables cannot constrain power

	res, err := core.SolveAdaptive(ctx, func(stepSec float64, horizon int) (*core.Instance, error) {
		inst, err := core.BuildInstance(w, spec, stepSec, horizon)
		if err != nil {
			return nil, err
		}
		for i := range inst.Problem.Tasks {
			inst.Problem.Tasks[i].Deps = nil
		}
		return inst, nil
	}, profile, cfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: gables: %w", err)
	}
	if res.MakespanSec > 0 {
		res.Speedup = w.SequentialSingleCoreSec() / res.MakespanSec
	}
	return res, nil
}
