package dse

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"hilp/internal/core"
	"hilp/internal/obs"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

// loopTrace is one point's §III-D loop as its spans record it.
type loopTrace struct {
	idx         int       // input index of the point
	refinements int       // the evaluate span's refinements arg
	steps       []float64 // step_sec of every refine-iteration, in order
	// The result's resolution and makespan: those of the last
	// refine-iteration whose refinement index equals refinements.
	finalStep     float64
	finalMakespan int
}

// traceWarmBatch runs a one-worker warm batch under a tracer and returns its
// points plus one loopTrace per solved point, in solve order.
func traceWarmBatch(t *testing.T, w rodinia.Workload, specs []soc.Spec, profile core.Profile) ([]Point, []loopTrace) {
	t.Helper()
	octx := &obs.Context{Tracer: obs.NewTracer()}
	ctx := obs.WithRequestID(context.Background(), "batch")
	res := RunHILP(ctx, w, specs, profile, scheduler.Config{Seed: 1, Effort: 0.2, Obs: octx},
		BatchOptions{Workers: 1, WarmStart: true})

	var loops []loopTrace
	for _, sp := range octx.Tracer.Snapshot() {
		switch sp.Name {
		case "evaluate":
			idx, err := strconv.Atoi(strings.TrimPrefix(sp.StrArgs["req"], "batch/p"))
			if err != nil {
				t.Fatalf("evaluate span req %q is not a point ID: %v", sp.StrArgs["req"], err)
			}
			loops = append(loops, loopTrace{idx: idx, refinements: int(sp.Args["refinements"])})
		case "refine-iteration":
			lt := &loops[len(loops)-1]
			step := sp.Args["step_sec"]
			lt.steps = append(lt.steps, step)
			if int(sp.Args["refinement"]) == lt.refinements {
				lt.finalStep = step
				lt.finalMakespan = int(sp.Args["makespan_steps"])
			}
		}
	}
	if len(loops) != res.Stats.Solved {
		t.Fatalf("%d evaluate spans for %d solved points", len(loops), res.Stats.Solved)
	}
	return res.Points, loops
}

// TestWarmPointStartsAtDonorStep: a warm-started point opens its §III-D loop
// at the resolution its donor ended on, while the batch's first point, which
// has no donor, starts at the profile's InitialStepSec.
func TestWarmPointStartsAtDonorStep(t *testing.T) {
	w := rodinia.Workload{Name: "warm-step", Apps: rodinia.DefaultWorkload().Apps[:2]}
	specs := []soc.Spec{
		{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}},
		specWithDSAs(2, dsaTargets(w, 1), 16),
	}
	profile := core.DSEProfile
	points, loops := traceWarmBatch(t, w, specs, profile)
	if len(loops) != 2 {
		t.Fatalf("%d solved points, want 2", len(loops))
	}
	donor, warm := loops[0], loops[1]
	if points[donor.idx].WarmStarted || !points[warm.idx].WarmStarted {
		t.Fatalf("warm flags: first %v, second %v; want false, true",
			points[donor.idx].WarmStarted, points[warm.idx].WarmStarted)
	}
	if got := donor.steps[0]; got != profile.InitialStepSec {
		t.Errorf("donorless point starts at %gs, want InitialStepSec %gs", got, profile.InitialStepSec)
	}
	if donor.finalStep == profile.InitialStepSec {
		t.Fatalf("donor ended on the initial rung %gs; the lattice does not exercise the warm start rung", donor.finalStep)
	}
	if got := warm.steps[0]; got != donor.finalStep {
		t.Errorf("warm point starts at %gs (steps %v), want the donor's final %gs", got, warm.steps, donor.finalStep)
	}
}

// TestWarmPointsEndInRange: starting at the donor's rung changes where a
// warm chain begins, not the §III-D rule for where it ends. Every clean warm
// point ends with its makespan in [RefineWhileBelow, Horizon] steps unless it
// reached the refinement cap.
func TestWarmPointsEndInRange(t *testing.T) {
	w := rodinia.Workload{Name: "warm-range", Apps: rodinia.DefaultWorkload().Apps[:3]}
	targets := dsaTargets(w, 2)
	specs := []soc.Spec{
		{CPUCores: 1},
		{CPUCores: 1, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}},
		{CPUCores: 2},
		{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}},
		specWithDSAs(2, targets, 16),
		specWithDSAs(2, targets[:1], 16),
		{CPUCores: 4, GPUSMs: 64, GPUFrequenciesMHz: []float64{765}},
		specWithDSAs(4, targets, 64),
	}
	profile := core.DSEProfile
	points, loops := traceWarmBatch(t, w, specs, profile)
	warm := 0
	for _, lt := range loops {
		p := points[lt.idx]
		if !p.WarmStarted || p.Err != nil || p.Cancelled || p.Degraded {
			continue
		}
		warm++
		if lt.refinements == profile.MaxRefinements {
			continue
		}
		if m := lt.finalMakespan; m < profile.RefineWhileBelow || m > profile.Horizon {
			t.Errorf("%s: ends at %d steps of %gs (steps %v), want [%d, %d]",
				p.Label, m, lt.finalStep, lt.steps, profile.RefineWhileBelow, profile.Horizon)
		}
	}
	if warm != len(specs)-1 {
		t.Errorf("%d clean warm points, want %d", warm, len(specs)-1)
	}
}
