package soc

import (
	"math"
	"testing"

	"hilp/internal/rodinia"
)

func TestAreaMatchesPaperHeadlineSoCs(t *testing.T) {
	// Every area the paper reports in §VI must be reproduced exactly.
	cases := []struct {
		spec Spec
		want float64
	}{
		{Spec{CPUCores: 1, GPUSMs: 64}, 432.6},
		{Spec{CPUCores: 4, GPUSMs: 4, DSAs: []DSA{{4, "LUD"}, {4, "HS"}, {4, "NN"}}}, 170.4},
		{Spec{CPUCores: 4, GPUSMs: 16, DSAs: []DSA{{16, "LUD"}, {16, "HS"}}}, 378.4},
		{Spec{CPUCores: 4, GPUSMs: 64}, 482.4},
	}
	for _, c := range cases {
		if got := c.spec.AreaMM2(); math.Abs(got-c.want) > 0.05 {
			t.Errorf("%s: area = %g, want %g", c.spec.Label(), got, c.want)
		}
	}
}

func TestLabelFormat(t *testing.T) {
	s := Spec{CPUCores: 4, GPUSMs: 16, DSAs: []DSA{{16, "LUD"}, {16, "HS"}}}
	if got := s.Label(); got != "(c4,g16,d2^16)" {
		t.Errorf("Label = %q, want (c4,g16,d2^16)", got)
	}
	none := Spec{CPUCores: 1}
	if got := none.Label(); got != "(c1,g0,d0^0)" {
		t.Errorf("Label = %q, want (c1,g0,d0^0)", got)
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{CPUCores: 0}).Validate(); err == nil {
		t.Error("accepted zero CPU cores")
	}
	if err := (Spec{CPUCores: 1, DSAs: []DSA{{0, "HS"}}}).Validate(); err == nil {
		t.Error("accepted zero-PE DSA")
	}
	if err := (Spec{CPUCores: 1, DSAs: []DSA{{1, "HS"}, {2, "HS"}}}).Validate(); err == nil {
		t.Error("accepted duplicate DSA targets")
	}
	if err := (Spec{CPUCores: 2, GPUSMs: 16, DSAs: []DSA{{4, "HS"}}}).Validate(); err != nil {
		t.Errorf("rejected valid spec: %v", err)
	}
}

func TestNormalizeDefaults(t *testing.T) {
	s := Spec{CPUCores: 1}.Normalize()
	if s.DSAAdvantage != 4 || s.MemBandwidthGBs != 800 || s.PowerBudgetWatts != 600 {
		t.Errorf("defaults not applied: %+v", s)
	}
	if len(s.GPUFrequenciesMHz) != 11 {
		t.Errorf("got %d DVFS points, want 11", len(s.GPUFrequenciesMHz))
	}
}

func TestGPUTimeMonotonicInSMs(t *testing.T) {
	for _, b := range rodinia.Benchmarks() {
		if b.TimeFit.R2 < 0.5 {
			continue // MC is flat by design
		}
		prev := math.Inf(1)
		for _, sms := range []int{4, 14, 28, 56, 98} {
			cur := GPUTimeSec(b, sms, rodinia.BaseFrequencyMHz)
			if cur > prev+1e-9 {
				t.Errorf("%s: time increased from %g to %g when adding SMs", b.Abbrev, prev, cur)
			}
			prev = cur
		}
	}
}

func TestGPUTimeAnchoredAtReferenceSlice(t *testing.T) {
	for _, b := range rodinia.Benchmarks() {
		got := GPUTimeSec(b, rodinia.ReferenceSMs, rodinia.BaseFrequencyMHz)
		if math.Abs(got-b.ComputeGPUSec) > 1e-9*math.Max(1, b.ComputeGPUSec) {
			t.Errorf("%s: GPUTimeSec(14, base) = %g, want table value %g", b.Abbrev, got, b.ComputeGPUSec)
		}
	}
}

func TestHeadlineSpeedupFloorsMatchPaper(t *testing.T) {
	// Sanity anchors derived from the paper's §VI numbers: on the Default
	// workload, the (c4,g16,d2^16) SoC's critical path is the HS chain
	// (setup + compute on its 16-PE DSA + teardown), about 35 s, which at
	// the ~1632 s single-core baseline gives the reported ~45.6x speedup.
	w := rodinia.DefaultWorkload()
	baseline := w.SequentialSingleCoreSec()
	if baseline < 1600 || baseline > 1670 {
		t.Fatalf("Default baseline = %g s, want ~1632", baseline)
	}
	hs, _ := rodinia.ByAbbrev("HS")
	chain := hs.SetupSec/5 + DSATimeSec(hs, 16, 4) + hs.TeardownSec/5
	speedupCeil := baseline / chain
	if speedupCeil < 42 || speedupCeil > 50 {
		t.Errorf("HS-chain speedup ceiling = %g, want ~46 (paper reports 45.6)", speedupCeil)
	}
}

func TestFrequencySensitivity(t *testing.T) {
	hw, _ := rodinia.ByAbbrev("HW")
	sc, _ := rodinia.ByAbbrev("SC")
	if FrequencySensitivity(hw) <= FrequencySensitivity(sc) {
		t.Error("HW (compute-bound) must be more frequency sensitive than SC (bandwidth-bound)")
	}
	// Lowering the clock must slow HW down significantly.
	slow := GPUTimeSec(hw, 32, 210)
	fast := GPUTimeSec(hw, 32, 765)
	if slow/fast < 2 {
		t.Errorf("HW at 210 MHz only %gx slower than 765 MHz, want > 2x", slow/fast)
	}
	// SC should be much less affected.
	slowSC := GPUTimeSec(sc, 32, 210)
	fastSC := GPUTimeSec(sc, 32, 765)
	if slowSC/fastSC > slow/fast {
		t.Error("SC must be less frequency sensitive than HW")
	}
}

func TestGPUPowerWatts(t *testing.T) {
	// Paper §VI: the 16-SM GPU spans roughly 10.4-24.6 W across operating
	// points. Our model reproduces that range closely.
	lo := GPUPowerWatts(16, 210)
	hi := GPUPowerWatts(16, 765)
	if lo < 9 || lo > 12 {
		t.Errorf("16-SM power at 210 MHz = %g, want ~10.4", lo)
	}
	if hi < 22 || hi > 27 {
		t.Errorf("16-SM power at 765 MHz = %g, want ~24.6", hi)
	}
	// Monotonic in both SMs and frequency.
	if GPUPowerWatts(32, 765) <= GPUPowerWatts(16, 765) {
		t.Error("power must grow with SM count")
	}
	if GPUPowerWatts(16, 765) <= GPUPowerWatts(16, 210) {
		t.Error("power must grow with frequency")
	}
	if GPUPowerWatts(0, 765) != 0 {
		t.Error("no GPU, no power")
	}
}

func TestGPUPowerInterpolation(t *testing.T) {
	mid := GPUPowerWatts(16, 500)
	lo := GPUPowerWatts(16, 480)
	hi := GPUPowerWatts(16, 540)
	if mid < lo || mid > hi {
		t.Errorf("interpolated power %g outside [%g, %g]", mid, lo, hi)
	}
	if GPUPowerWatts(16, 100) != GPUPowerWatts(16, 210) {
		t.Error("below-range frequency must clamp to the lowest point")
	}
}

func TestDSAEquivalence(t *testing.T) {
	lud, _ := rodinia.ByAbbrev("LUD")
	// A 16-PE DSA at 4x advantage performs like a 64-SM GPU...
	dsaT := DSATimeSec(lud, 16, 4)
	gpuT := GPUTimeSec(lud, 64, rodinia.BaseFrequencyMHz)
	if math.Abs(dsaT-gpuT) > 1e-9 {
		t.Errorf("DSA time %g != 64-SM GPU time %g", dsaT, gpuT)
	}
	// ...at a quarter of the power.
	dsaP := DSAPowerWatts(16, 4)
	gpuP := GPUPowerWatts(64, rodinia.BaseFrequencyMHz)
	if math.Abs(dsaP-gpuP/4) > 1e-9 {
		t.Errorf("DSA power %g != GPU power/4 = %g", dsaP, gpuP/4)
	}
	// Bandwidth matches the equivalent GPU.
	if math.Abs(DSABandwidthGBs(lud, 16, 4)-GPUBandwidthGBs(lud, 64, rodinia.BaseFrequencyMHz)) > 1e-9 {
		t.Error("DSA bandwidth must match the equivalent GPU")
	}
}

func TestCPUAmdahlScaling(t *testing.T) {
	hs, _ := rodinia.ByAbbrev("HS")
	t1 := CPUTimeSec(hs, 1)
	if math.Abs(t1-hs.ComputeCPUSec) > 1e-9 {
		t.Errorf("1-core time = %g, want table value %g", t1, hs.ComputeCPUSec)
	}
	t4 := CPUTimeSec(hs, 4)
	t32 := CPUTimeSec(hs, 32)
	if !(t32 < t4 && t4 < t1) {
		t.Error("CPU time must decrease with cores")
	}
	// Amdahl ceiling: speedup bounded by 1/(1-pi) = 100.
	if t1/t32 > 1/(1-CPUParallelFraction) {
		t.Errorf("32-core speedup %g exceeds the Amdahl ceiling", t1/t32)
	}
}

func TestCPUBandwidthConservesTraffic(t *testing.T) {
	sc, _ := rodinia.ByAbbrev("SC")
	bw := CPUBandwidthGBs(sc, 4)
	traffic := bw * CPUTimeSec(sc, 4)
	wantTraffic := sc.GPUBandwidth * GPUTimeSec(sc, rodinia.FullGPUSMs, rodinia.BaseFrequencyMHz)
	if math.Abs(traffic-wantTraffic) > 1e-6*wantTraffic {
		t.Errorf("CPU traffic %g != GPU traffic %g", traffic, wantTraffic)
	}
}

func TestMemoryPower(t *testing.T) {
	// 800 GB/s at 7 pJ/bit is ~44.8 W.
	if got := MemoryPowerWatts(800); math.Abs(got-44.8) > 0.01 {
		t.Errorf("MemoryPowerWatts(800) = %g, want 44.8", got)
	}
}

func TestDesignSpaceCount(t *testing.T) {
	w := rodinia.DefaultWorkload()
	specs := DesignSpace(w, SpaceConfig{})
	// Paper §VI: 3 CPU counts x 4 GPU options x (1 + 10x3 DSA variants) = 372.
	if len(specs) != 372 {
		t.Fatalf("design space has %d SoCs, want 372", len(specs))
	}
	labels := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Label(), err)
		}
		if labels[s.Label()] {
			t.Errorf("duplicate configuration %s", s.Label())
		}
		labels[s.Label()] = true
	}
	// The paper's headline configurations must be present.
	for _, want := range []string{"(c1,g64,d0^0)", "(c4,g4,d3^4)", "(c4,g16,d2^16)", "(c1,g0,d0^0)", "(c2,g0,d10^1)"} {
		if !labels[want] {
			t.Errorf("design space missing %s", want)
		}
	}
}

func TestDesignSpaceDSAOrder(t *testing.T) {
	w := rodinia.DefaultWorkload()
	specs := DesignSpace(w, SpaceConfig{})
	for _, s := range specs {
		if len(s.DSAs) >= 2 {
			if s.DSAs[0].Target != "LUD" || s.DSAs[1].Target != "HS" {
				t.Fatalf("%s: DSA order %v, want LUD then HS", s.Label(), s.DSAs)
			}
		}
	}
}

func TestDSAForLookup(t *testing.T) {
	s := Spec{CPUCores: 4, GPUSMs: 16, DSAs: []DSA{{16, "LUD"}, {16, "HS"}}}
	if d, ok := s.DSAFor("HS"); !ok || d.PEs != 16 {
		t.Errorf("DSAFor(HS) = %+v, %v", d, ok)
	}
	if _, ok := s.DSAFor("BFS"); ok {
		t.Error("DSAFor(BFS) should be absent")
	}
}

func TestDesignSpaceNoDSAs(t *testing.T) {
	w := rodinia.DefaultWorkload()
	specs := DesignSpace(w, SpaceConfig{MaxDSAs: -1})
	// 3 CPU counts x 4 GPU options, no DSA variants.
	if len(specs) != 12 {
		t.Fatalf("%d SoCs, want 12 with DSAs disabled", len(specs))
	}
	for _, s := range specs {
		if len(s.DSAs) != 0 {
			t.Fatalf("%s has DSAs despite MaxDSAs < 0", s.Label())
		}
	}
}

func TestComputeUnitsOrderAndLabels(t *testing.T) {
	s := Spec{CPUCores: 4, GPUSMs: 16, GPUFrequenciesMHz: []float64{600, 765},
		DSAs: []DSA{{16, "HS"}, {4, "LUD"}}}.Normalize()
	lud, err := rodinia.ByAbbrev("LUD")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	s.ComputeUnits(lud, func(u Unit) { got = append(got, u.Label()) })
	want := []string{"cpu", "cpu-x4", "gpu@600MHz", "gpu@765MHz", "dsa-LUD"}
	if len(got) != len(want) {
		t.Fatalf("units %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("unit %d = %s, want %s", i, got[i], want[i])
		}
	}

	// A one-core SoC without GPU or DSA offers only the single core.
	n := 0
	Spec{CPUCores: 1}.Normalize().ComputeUnits(lud, func(u Unit) {
		n++
		if u.Cores != 1 || u.Sec != CPUTimeSec(lud, 1) || u.Watts != CPUCoreWatts {
			t.Errorf("unit %+v, want one core", u)
		}
	})
	if n != 1 {
		t.Errorf("%d units on (c1,g0), want 1", n)
	}
}

func TestComputeUnitsAllocatesNothingOfItsOwn(t *testing.T) {
	s := Spec{CPUCores: 4, GPUSMs: 16, DSAs: []DSA{{16, "LUD"}}}.Normalize()
	lud, err := rodinia.ByAbbrev("LUD")
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	units := testing.AllocsPerRun(100, func() {
		s.ComputeUnits(lud, func(u Unit) { sum += u.Sec * u.Watts })
	})
	// The device formulas' own allocations (GPUPowerWatts copies Table III)
	// are the floor; enumerating must add none.
	formulas := testing.AllocsPerRun(100, func() {
		for _, f := range s.GPUFrequenciesMHz {
			sum += GPUPowerWatts(s.GPUSMs, f)
		}
		sum += DSAPowerWatts(16, s.DSAAdvantage)
	})
	if units > formulas {
		t.Errorf("ComputeUnits allocates %v per call, the device formulas alone %v", units, formulas)
	}
}
