package soc

import (
	"fmt"

	"hilp/internal/rodinia"
)

// Unit is one compute unit that can run a benchmark's compute phase on a
// spec - one column of the paper's per-phase T/B/P tables (§III): a single
// CPU core, all CPU cores together, one GPU DVFS operating point, or the
// benchmark's DSA.
type Unit struct {
	Cores   int     // CPU cores held: 1 or all of them for a CPU unit, 0 otherwise
	FreqMHz float64 // GPU operating point; 0 for CPU and DSA units
	DSA     string  // benchmark a DSA unit accelerates; "" otherwise
	Sec     float64 // execution time
	Watts   float64 // device power, memory power excluded
	GBs     float64 // memory bandwidth drawn
}

// Label names the unit: "cpu", "cpu-x4", "gpu@765MHz" or "dsa-LUD".
func (u Unit) Label() string {
	switch {
	case u.Cores == 1:
		return "cpu"
	case u.Cores > 1:
		return fmt.Sprintf("cpu-x%d", u.Cores)
	case u.DSA != "":
		return "dsa-" + u.DSA
	}
	return fmt.Sprintf("gpu@%gMHz", u.FreqMHz)
}

// ComputeUnits calls fn with every unit of s that can run b's compute phase,
// in a fixed order: one core, all cores (when there are several), each GPU
// operating point, then b's DSA if s has one. s must be normalized. The
// enumeration allocates nothing beyond what the device formulas do, so the
// builders and bounds that call it once per benchmark pay no more than the
// formulas themselves.
func (s Spec) ComputeUnits(b rodinia.Benchmark, fn func(Unit)) {
	fn(Unit{Cores: 1, Sec: CPUTimeSec(b, 1), Watts: CPUCoreWatts, GBs: CPUBandwidthGBs(b, 1)})
	if n := s.CPUCores; n > 1 {
		fn(Unit{Cores: n, Sec: CPUTimeSec(b, n), Watts: CPUCoreWatts * float64(n), GBs: CPUBandwidthGBs(b, n)})
	}
	if s.GPUSMs > 0 {
		for _, f := range s.GPUFrequenciesMHz {
			fn(Unit{FreqMHz: f, Sec: GPUTimeSec(b, s.GPUSMs, f),
				Watts: GPUPowerWatts(s.GPUSMs, f), GBs: GPUBandwidthGBs(b, s.GPUSMs, f)})
		}
	}
	if d, ok := s.DSAFor(b.Abbrev); ok {
		fn(Unit{DSA: b.Abbrev, Sec: DSATimeSec(b, d.PEs, s.DSAAdvantage),
			Watts: DSAPowerWatts(d.PEs, s.DSAAdvantage), GBs: DSABandwidthGBs(b, d.PEs, s.DSAAdvantage)})
	}
}
