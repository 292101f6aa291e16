package scheduler

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"hilp/internal/obs"
)

// Tests of the early exit a coarse adaptive-resolution solve takes
// (AnnealConfig/TabuConfig.StopBelow, Config.refineBelow).

// improverRun is one Anneal or TabuSearch call with its counters.
type improverRun struct {
	s              Schedule
	ok             bool
	decodes, moves int64
}

// runImprover runs Anneal (tabu false) or TabuSearch on p with the given
// stop threshold and counts its SGS decodes and search moves (annealing
// proposals accepted or rejected, tabu steps).
func runImprover(p *Problem, tabu bool, seedList, seedOpts []int, seed int64, stopBelow int) improverRun {
	reg := obs.NewRegistry()
	octx := &obs.Context{Metrics: reg}
	var r improverRun
	if tabu {
		r.s, r.ok = TabuSearch(context.Background(), p, TabuConfig{Iterations: 60, Seed: seed, SeedList: seedList, SeedOpts: seedOpts, StopBelow: stopBelow, Obs: octx})
		r.moves = reg.Counter(obs.MTabuSteps).Value()
	} else {
		r.s, r.ok = Anneal(context.Background(), p, AnnealConfig{Iterations: 300, Restarts: 2, Seed: seed, SeedList: seedList, SeedOpts: seedOpts, StopBelow: stopBelow, Obs: octx})
		r.moves = reg.Counter(obs.MAnnealAccepted).Value() + reg.Counter(obs.MAnnealRejected).Value()
	}
	r.decodes = reg.Counter(obs.MSGSSchedules).Value()
	return r
}

// portfolioBest is the makespan the improvers start from: the best
// heuristic seed, or the warm seed when it is better.
func portfolioBest(p *Problem, seedList, seedOpts []int) (int, bool) {
	best, found := 0, false
	consider := func(list, opts []int) {
		if s, ok := referenceDecode(p, list, opts); ok && (!found || s.Makespan < best) {
			best, found = s.Makespan, true
		}
	}
	for _, c := range heuristicCandidates(p) {
		consider(c.list, c.opts)
	}
	if len(seedList) == len(p.Tasks) && len(seedOpts) == len(p.Tasks) {
		consider(seedList, seedOpts)
	}
	return best, found
}

// TestImproversStopBelow checks both improvers on random instances against
// their unrestricted runs:
//   - StopBelow 0 is the reference search, exactly;
//   - a stopped run validates, ends below the threshold iff the unrestricted
//     run does, and decodes no more schedules;
//   - a threshold the search never reaches leaves the run unchanged, and one
//     just above the unrestricted optimum stops on that very schedule;
//   - a threshold the portfolio already beats makes no search moves.
func TestImproversStopBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stoppedMidSearch := 0
	for trial := 0; trial < 60; trial++ {
		p := randomOracleProblem(rng, 14, false)
		var seedList, seedOpts []int
		if trial%2 == 1 {
			lists, opts := randomOracleLists(rng, p)
			k := len(lists) - 1 - rng.Intn(4)
			if len(lists[k]) == len(p.Tasks) {
				seedList, seedOpts = lists[k], opts[k]
			}
		}
		start, found := portfolioBest(p, seedList, seedOpts)
		for _, tabu := range []bool{false, true} {
			full := runImprover(p, tabu, seedList, seedOpts, int64(trial), 0)
			var want Schedule
			var wantOK bool
			if tabu {
				want, wantOK = referenceTabu(p, TabuConfig{Iterations: 60, Seed: int64(trial), SeedList: seedList, SeedOpts: seedOpts})
			} else {
				want, wantOK = referenceAnneal(p, AnnealConfig{Iterations: 300, Restarts: 2, Seed: int64(trial), SeedList: seedList, SeedOpts: seedOpts})
			}
			if full.ok != wantOK || !reflect.DeepEqual(full.s, want) || full.ok != found {
				t.Fatalf("trial %d tabu=%v: StopBelow 0 = %+v, %v; reference %+v, %v", trial, tabu, full.s, full.ok, want, wantOK)
			}
			if !full.ok {
				continue
			}
			for _, stop := range []int{1, full.s.Makespan, full.s.Makespan + 1, start, start + 1, start + 5} {
				got := runImprover(p, tabu, seedList, seedOpts, int64(trial), stop)
				if err := got.s.Validate(p); err != nil {
					t.Fatalf("trial %d tabu=%v stop %d: invalid schedule: %v", trial, tabu, stop, err)
				}
				if (got.s.Makespan < stop) != (full.s.Makespan < stop) {
					t.Errorf("trial %d tabu=%v stop %d: makespan %d, unrestricted %d", trial, tabu, stop, got.s.Makespan, full.s.Makespan)
				}
				if got.decodes > full.decodes {
					t.Errorf("trial %d tabu=%v stop %d: %d decodes, unrestricted %d", trial, tabu, stop, got.decodes, full.decodes)
				}
				if (stop <= full.s.Makespan || stop == full.s.Makespan+1) && !reflect.DeepEqual(got.s, full.s) {
					t.Errorf("trial %d tabu=%v stop %d: %+v, want the unrestricted %+v", trial, tabu, stop, got.s, full.s)
				}
				if stop > start && got.moves != 0 {
					t.Errorf("trial %d tabu=%v stop %d: %d moves after the portfolio reached %d", trial, tabu, stop, got.moves, start)
				}
				if stop <= start && got.s.Makespan < stop && got.moves > 0 {
					stoppedMidSearch++
				}
			}
		}
	}
	if stoppedMidSearch == 0 {
		t.Error("vacuous: no run stopped inside the search")
	}
}

// TestSolveRefineBelowStops: a Solve with the refinement threshold set
// returns the improver's incumbent as soon as it is below the threshold,
// validated and with a sound bound, skipping the later stages; with the
// context done it keeps the anytime Cancelled semantics.
func TestSolveRefineBelowStops(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	stops := 0
	for trial := 0; trial < 40; trial++ {
		p := randomOracleProblem(rng, 12, false)
		cfg := Config{Seed: int64(trial), Effort: 0.2, ExactTaskLimit: -1}
		full, err := Solve(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if Stopped(full) {
			t.Fatalf("trial %d: a solve without a threshold reports Stopped", trial)
		}
		for _, pre := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			if pre {
				cancel()
			}
			threshold := full.Schedule.Makespan + 1 + trial%3
			got, err := Solve(ctx, p, WithRefineBelow(cfg, threshold))
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Schedule.Validate(p); err != nil {
				t.Fatalf("trial %d: invalid schedule: %v", trial, err)
			}
			if got.LowerBound < 0 || got.LowerBound > got.Schedule.Makespan {
				t.Errorf("trial %d: bound %d outside [0, makespan %d]", trial, got.LowerBound, got.Schedule.Makespan)
			}
			if got.Schedule.Makespan >= threshold {
				// A done context cuts the search before it reaches the
				// threshold; the portfolio's schedule finishes in full.
				if !pre {
					t.Errorf("trial %d: makespan %d, want below %d", trial, got.Schedule.Makespan, threshold)
				}
				continue
			}
			if !Stopped(got) || got.Nodes != 0 || got.Method != "anneal" {
				t.Errorf("trial %d: stopped=%v nodes=%d method=%q, want a stopped anneal result", trial, Stopped(got), got.Nodes, got.Method)
			}
			if got.Proven != (got.Schedule.Makespan == got.LowerBound) {
				t.Errorf("trial %d: proven=%v at makespan %d, bound %d", trial, got.Proven, got.Schedule.Makespan, got.LowerBound)
			}
			if got.Cancelled != (pre && !got.Proven) {
				t.Errorf("trial %d: cancelled=%v with the context done=%v, proven=%v", trial, got.Cancelled, pre, got.Proven)
			}
			stops++
		}
		// Below the full result, the threshold is never reached: the solve
		// runs in full.
		if full.Schedule.Makespan > 0 {
			got, err := Solve(context.Background(), p, WithRefineBelow(cfg, full.Schedule.Makespan))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, full) {
				t.Errorf("trial %d: unreached threshold changed the solve: %+v, want %+v", trial, got, full)
			}
		}
	}
	if stops == 0 {
		t.Error("vacuous: no solve stopped")
	}
}
