package core

import (
	"math"

	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

// AnalyticLowerBoundSec returns a continuous-time lower bound, in seconds,
// on the makespan of any schedule of w on spec — at any time-step
// resolution, since discretized durations only round continuous times up.
// Four bounds are combined:
//
//   - critical path: each application must run setup, its fastest compute
//     option, and teardown in a chain;
//   - CPU-core load: setup and teardown run only on CPU cores, so their
//     total core-seconds divided by the core count bounds the makespan;
//   - energy: every phase draws at least its cheapest option's energy
//     (power x time, memory power included), and instantaneous draw is
//     capped by the power budget;
//   - traffic: every phase moves at least its lightest option's bytes, and
//     instantaneous bandwidth is capped by the memory budget.
//
// The sweep engine uses it to certify dominance pruning: a skipped point's
// best possible speedup is seq / AnalyticLowerBoundSec.
func AnalyticLowerBoundSec(w rodinia.Workload, spec soc.Spec) float64 {
	spec = spec.Normalize()
	pathBound := 0.0
	coreSec := 0.0   // CPU-core-seconds pinned to cores (setup + teardown)
	energyJ := 0.0   // joules every schedule must draw
	trafficGB := 0.0 // gigabytes every schedule must move

	for _, app := range w.Apps {
		fixed := app.SetupSec() + app.TeardownSec()
		coreSec += fixed
		// Setup and teardown run on one CPU core with no memory traffic.
		energyJ += fixed * (soc.CPUCoreWatts + soc.MemoryPowerWatts(0))

		// The compute phase needs at least the least time, energy (memory
		// power included) and traffic of any one unit; taking each minimum
		// independently only loosens (never breaks) the combined bound.
		minT, minE, minGB := math.Inf(1), math.Inf(1), math.Inf(1)
		spec.ComputeUnits(app.Bench, func(u soc.Unit) {
			minT = math.Min(minT, u.Sec)
			minE = math.Min(minE, u.Sec*(u.Watts+soc.MemoryPowerWatts(u.GBs)))
			minGB = math.Min(minGB, u.Sec*u.GBs)
		})
		pathBound = math.Max(pathBound, fixed+minT)
		energyJ += minE
		trafficGB += minGB
	}

	lb := math.Max(pathBound, coreSec/float64(spec.CPUCores))
	if spec.PowerBudgetWatts > 0 && !math.IsInf(spec.PowerBudgetWatts, 1) {
		lb = math.Max(lb, energyJ/spec.PowerBudgetWatts)
	}
	if spec.MemBandwidthGBs > 0 && !math.IsInf(spec.MemBandwidthGBs, 1) {
		lb = math.Max(lb, trafficGB/spec.MemBandwidthGBs)
	}
	return lb
}

// WarmHint extracts a warm-start hint from a solved result, for seeding a
// neighboring design point's search (see scheduler.WarmStart). nil when the
// result carries no instance (analytic baselines).
func (r *Result) WarmHint() *scheduler.WarmStart {
	if r == nil || r.Instance == nil || r.Instance.Problem == nil {
		return nil
	}
	return scheduler.WarmStartOf(r.Instance.Problem, r.Sched.Schedule)
}
