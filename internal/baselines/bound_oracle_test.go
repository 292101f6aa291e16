package baselines

import (
	"testing"

	"hilp/internal/core"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

// boundHoldsUnderMA checks the analytic seconds bound against MultiAmdahl on
// one spec. MultiAmdahl runs one phase at a time, each on a unit whose own
// power and bandwidth fit the caps, so its schedule is feasible in HILP's
// model and no valid lower bound may exceed its makespan. It reports whether
// MultiAmdahl was feasible and the bound's share of its makespan.
func boundHoldsUnderMA(t *testing.T, w rodinia.Workload, s soc.Spec) (bool, float64) {
	t.Helper()
	ma, err := MultiAmdahl(w, s)
	if err != nil {
		return false, 0
	}
	lb := core.AnalyticLowerBoundSec(w, s)
	if !(lb <= ma.MakespanSec*(1+1e-9)) {
		t.Fatalf("%s on %s %+v: analytic bound %g s above MultiAmdahl's feasible %g s",
			w.Name, s.Label(), s, lb, ma.MakespanSec)
	}
	return true, lb / ma.MakespanSec
}

// TestAnalyticBoundBelowMultiAmdahl is the bound-validity oracle over the
// §VI design space of all three workloads under five power and bandwidth
// caps: wherever MultiAmdahl is feasible, the seconds bound that certifies
// dominance pruning must not exceed its makespan.
func TestAnalyticBoundBelowMultiAmdahl(t *testing.T) {
	caps := append(pinCaps, struct{ powerW, bwGBs float64 }{20, 10})
	points, feasible, worst := 0, 0, 0.0
	for _, w := range pinWorkloads() {
		for _, c := range caps {
			for _, s := range soc.DesignSpace(w, soc.SpaceConfig{PowerW: c.powerW, MemBWGBs: c.bwGBs}) {
				points++
				if ok, ratio := boundHoldsUnderMA(t, w, s); ok {
					feasible++
					worst = max(worst, ratio)
				}
			}
		}
	}
	t.Logf("%d of %d design points MultiAmdahl-feasible; worst bound/MA ratio %.4f", feasible, points, worst)
	if feasible < points/2 {
		t.Errorf("only %d of %d points feasible: the oracle checks too little", feasible, points)
	}
}

// TestAnalyticBoundBelowHeuristicSchedules tightens the oracle: any feasible
// schedule at any resolution bounds the optimum from above, since
// discretized durations only round times up. On every 7th design point of
// the same grid, a heuristic schedule of the instance built at 0.4 s steps
// must not finish before the seconds bound. Those schedules come within 1%
// of the bound, where MultiAmdahl's sequential ones leave several percent.
func TestAnalyticBoundBelowHeuristicSchedules(t *testing.T) {
	const step = 0.4
	caps := append(pinCaps, struct{ powerW, bwGBs float64 }{20, 10})
	worst := 0.0
	for _, w := range pinWorkloads() {
		for _, c := range caps {
			for i, s := range soc.DesignSpace(w, soc.SpaceConfig{PowerW: c.powerW, MemBWGBs: c.bwGBs}) {
				if i%7 != 0 {
					continue
				}
				in, err := core.BuildInstance(w, s, step, 1000)
				if err != nil {
					t.Fatal(err)
				}
				sched, ok := scheduler.HeuristicSchedule(in.Problem)
				if !ok {
					t.Fatalf("%s on %s: no heuristic schedule", w.Name, s.Label())
				}
				lb, ub := core.AnalyticLowerBoundSec(w, s), float64(sched.Makespan)*step
				if !(lb <= ub*(1+1e-9)) {
					t.Fatalf("%s on %s %+v: analytic bound %g s above a feasible schedule's %g s",
						w.Name, s.Label(), s, lb, ub)
				}
				worst = max(worst, lb/ub)
			}
		}
	}
	t.Logf("worst bound/heuristic ratio %.4f", worst)
}

// FuzzAnalyticBoundBelowMultiAmdahl checks the MultiAmdahl inequality on any
// spec that passes core.ValidateSpec: core counts, GPU sizes, subsets of the
// Table III operating points, DSA counts and sizes, advantages and caps.
func FuzzAnalyticBoundBelowMultiAmdahl(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(16), uint16(0), uint8(2), uint8(16), 4.0, 600.0, 800.0)
	f.Add(uint8(1), uint8(1), uint8(64), uint16(0x401), uint8(0), uint8(1), 0.0, 45.0, 30.0)
	f.Add(uint8(2), uint8(2), uint8(0), uint16(0), uint8(10), uint8(4), 0.5, 20.0, 10.0)
	table := rodinia.PowerTable()
	f.Fuzz(func(t *testing.T, wl, cores, sms uint8, freqMask uint16, dsas, pes uint8, adv, powerW, bwGBs float64) {
		w := pinWorkloads()[int(wl)%3]
		s := soc.Spec{CPUCores: int(cores), GPUSMs: int(sms), DSAAdvantage: adv,
			PowerBudgetWatts: powerW, MemBandwidthGBs: bwGBs}
		for i, pt := range table {
			if freqMask&(1<<i) != 0 {
				s.GPUFrequenciesMHz = append(s.GPUFrequenciesMHz, pt.FrequencyMHz)
			}
		}
		order := w.ComputeCPUOrder()
		for k := 0; k < int(dsas)%(len(order)+1); k++ {
			s.DSAs = append(s.DSAs, soc.DSA{PEs: int(pes), Target: w.Apps[order[k]].Bench.Abbrev})
		}
		s = s.Normalize()
		if core.ValidateSpec(s) != nil {
			return
		}
		boundHoldsUnderMA(t, w, s)
	})
}
