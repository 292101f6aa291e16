package core

import (
	"context"
	"math"
	"testing"
	"time"

	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
)

func TestSolveDeadlineReturnsBestIncumbent(t *testing.T) {
	w := rodinia.DefaultWorkload()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()

	start := time.Now()
	res, err := Solve(ctx, w, fastSpec(4, 64), ValidationProfile, scheduler.Config{Seed: 1, Effort: 100})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline-cut solve errored: %v", err)
	}
	if elapsed > 3*time.Second {
		t.Errorf("solve took %v after a 20ms deadline", elapsed)
	}
	if !res.Cancelled {
		t.Fatal("Cancelled not set")
	}
	if res.MakespanSec <= 0 {
		t.Errorf("no incumbent: makespan %g", res.MakespanSec)
	}
	if res.Speedup <= 0 {
		t.Errorf("speedup %g, want > 0", res.Speedup)
	}
	if res.Gap < 0 || res.Gap > 1 || math.IsNaN(res.Gap) {
		t.Errorf("gap %g, want a valid certificate in [0, 1]", res.Gap)
	}
	if res.Sched.Proven {
		t.Error("cancelled result claims proven optimality")
	}
}

func TestSolveAdaptivePreCancelledStopsAfterFirstPass(t *testing.T) {
	w := rodinia.Workload{Name: "mini", Apps: rodinia.DefaultWorkload().Apps[:3]}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A profile that would refine aggressively if not cancelled.
	profile := Profile{InitialStepSec: 10, Horizon: 1000, RefineWhileBelow: 1000, MaxRefinements: 6}
	res, err := Solve(ctx, w, fastSpec(2, 16), profile, scheduler.Config{Seed: 1, Effort: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Error("Cancelled not set")
	}
	if res.Refinements != 0 {
		t.Errorf("cancelled loop still refined %d times", res.Refinements)
	}
	if res.MakespanSec <= 0 {
		t.Errorf("no incumbent: makespan %g", res.MakespanSec)
	}
}

func TestSolveBackgroundNotCancelled(t *testing.T) {
	w := rodinia.Workload{Name: "mini", Apps: rodinia.DefaultWorkload().Apps[:2]}
	profile := Profile{InitialStepSec: 10, Horizon: 200, RefineWhileBelow: 0, MaxRefinements: 0}
	res, err := Solve(context.Background(), w, fastSpec(2, 16), profile, scheduler.Config{Seed: 1, Effort: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled {
		t.Error("Cancelled set on a background-context solve")
	}
}

// TestSolveAdaptiveCancelledKeepsProof pins the cancelled-and-proven rule of
// Result: a loop cut short reports Cancelled even when the solve at the
// resolution it reached proved its schedule optimal. Sched keeps that proof
// (and is not itself cancelled); only the wire form drops it.
func TestSolveAdaptiveCancelledKeepsProof(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	builds := 0
	build := func(stepSec float64, horizon int) (*Instance, error) {
		builds++
		cancel() // the deadline passes while the first instance is built
		return validModel().Build(stepSec, horizon)
	}
	// The profile would refine if the loop were not cancelled.
	profile := Profile{InitialStepSec: 1, Horizon: 100, RefineWhileBelow: 1000, MaxRefinements: 3}
	res, err := SolveAdaptive(ctx, build, profile, scheduler.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 || res.Refinements != 0 {
		t.Errorf("cancelled loop built %d instances and refined %d times, want 1 and 0", builds, res.Refinements)
	}
	if !res.Sched.Proven || res.Sched.Cancelled || res.Sched.LowerBound != res.Sched.Schedule.Makespan {
		t.Errorf("solve at the first resolution: proven=%v cancelled=%v bound %d makespan %d, want a proof of optimality",
			res.Sched.Proven, res.Sched.Cancelled, res.Sched.LowerBound, res.Sched.Schedule.Makespan)
	}
	if !res.Cancelled {
		t.Error("Cancelled not set on a proven result of a cut-short loop")
	}
}
