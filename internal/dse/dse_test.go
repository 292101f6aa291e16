package dse

import (
	"context"
	"errors"
	"testing"

	"hilp/internal/core"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		spec soc.Spec
		want Mix
	}{
		{soc.Spec{CPUCores: 1}, NoAccel},
		{soc.Spec{CPUCores: 1, GPUSMs: 64}, GPUDominated},
		{soc.Spec{CPUCores: 1, DSAs: []soc.DSA{{PEs: 16, Target: "HS"}}}, DSADominated},
		// 16 GPU SMs vs 2x16 DSA PEs: DSAs take 2/3 of accelerator area.
		{soc.Spec{CPUCores: 4, GPUSMs: 16, DSAs: []soc.DSA{{PEs: 16, Target: "LUD"}, {PEs: 16, Target: "HS"}}}, MixedAccel},
		// 64 GPU SMs vs one 1-PE DSA: GPU > 75%.
		{soc.Spec{CPUCores: 1, GPUSMs: 64, DSAs: []soc.DSA{{PEs: 1, Target: "LUD"}}}, GPUDominated},
	}
	for _, c := range cases {
		if got := Classify(c.spec); got != c.want {
			t.Errorf("Classify(%s) = %v, want %v", c.spec.Label(), got, c.want)
		}
	}
}

func TestParetoFront(t *testing.T) {
	pts := []Point{
		{Label: "a", AreaMM2: 10, Speedup: 1},
		{Label: "b", AreaMM2: 20, Speedup: 3},
		{Label: "dominated", AreaMM2: 25, Speedup: 2},
		{Label: "c", AreaMM2: 30, Speedup: 5},
		{Label: "errored", AreaMM2: 5, Speedup: 9, Err: errors.New("x")},
	}
	front := ParetoFront(pts)
	if len(front) != 3 {
		t.Fatalf("front has %d points, want 3: %+v", len(front), front)
	}
	for i, want := range []string{"a", "b", "c"} {
		if front[i].Label != want {
			t.Errorf("front[%d] = %s, want %s", i, front[i].Label, want)
		}
	}
}

func TestParetoFrontTieOnArea(t *testing.T) {
	pts := []Point{
		{Label: "slow", AreaMM2: 10, Speedup: 1},
		{Label: "fast", AreaMM2: 10, Speedup: 2},
	}
	front := ParetoFront(pts)
	if len(front) != 1 || front[0].Label != "fast" {
		t.Errorf("front = %+v, want only 'fast'", front)
	}
}

func TestBest(t *testing.T) {
	pts := []Point{
		{Label: "a", AreaMM2: 10, Speedup: 2},
		{Label: "b", AreaMM2: 5, Speedup: 2}, // same speedup, smaller area
		{Label: "err", Speedup: 99, Err: errors.New("x")},
	}
	best, ok := Best(pts)
	if !ok || best.Label != "b" {
		t.Errorf("Best = %+v/%v, want b", best, ok)
	}
	if _, ok := Best([]Point{{Err: errors.New("x")}}); ok {
		t.Error("Best found a point among errors")
	}
}

func TestSweepPreservesOrderAndParallelizes(t *testing.T) {
	specs := []soc.Spec{
		{CPUCores: 1},
		{CPUCores: 2},
		{CPUCores: 4},
	}
	pts := Run(context.Background(), specs, BatchOptions{Workers: 3}, func(_ context.Context, s soc.Spec) Point {
		return Point{Label: s.Label(), AreaMM2: s.AreaMM2()}
	}).Points
	for i, s := range specs {
		if pts[i].Label != s.Label() {
			t.Errorf("point %d = %s, want %s", i, pts[i].Label, s.Label())
		}
	}
}

func TestEvaluatorsOnMiniSpace(t *testing.T) {
	w := rodinia.Workload{Name: "mini", Apps: rodinia.DefaultWorkload().Apps[:3]}
	specs := []soc.Spec{
		{CPUCores: 1, GPUFrequenciesMHz: []float64{765}},
		{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}},
	}
	profile := core.Profile{InitialStepSec: 10, Horizon: 200, RefineWhileBelow: 10, MaxRefinements: 1}
	cfg := scheduler.Config{Seed: 1, Effort: 0.2}

	ctx, bo := context.Background(), BatchOptions{Workers: 1}
	for name, sweep := range map[string]func() BatchResult{
		"hilp":   func() BatchResult { return RunHILP(ctx, w, specs, profile, cfg, bo) },
		"gables": func() BatchResult { return Run(ctx, specs, bo, GablesEvaluator(w, profile, cfg)) },
		"ma":     func() BatchResult { return Run(ctx, specs, bo, MAEvaluator(w)) },
	} {
		pts := sweep().Points
		for i, p := range pts {
			if p.Err != nil {
				t.Errorf("%s: point %d: %v", name, i, p.Err)
				continue
			}
			if p.Speedup <= 0 {
				t.Errorf("%s: point %d speedup %g", name, i, p.Speedup)
			}
			if p.AreaMM2 != specs[i].AreaMM2() {
				t.Errorf("%s: point %d area mismatch", name, i)
			}
		}
		// The accelerated SoC must win under every model.
		if pts[1].Speedup <= pts[0].Speedup {
			t.Errorf("%s: GPU SoC %g not faster than CPU-only %g", name, pts[1].Speedup, pts[0].Speedup)
		}
	}
}
