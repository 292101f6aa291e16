package scheduler

import (
	"context"
	"testing"

	"hilp/internal/obs"
)

// labeledFig2 is the Figure 2 example with per-cluster option labels, the
// form the HILP model builder emits. Labels are what make a WarmStart
// portable: the recipient remaps them by name, not by option index.
func labeledFig2(withPower bool) *Problem {
	p := exampleFig2(withPower)
	names := []string{"cpu0", "gpu0", "dsa0"}
	for i := range p.Tasks {
		for oi := range p.Tasks[i].Options {
			o := &p.Tasks[i].Options[oi]
			o.Label = names[o.Cluster]
		}
	}
	return p
}

func TestWarmStartOfRoundTrip(t *testing.T) {
	// A donor solve's hint, replayed onto the same problem, must decode to
	// the donor schedule and certify via the "warmstart" shortcut without
	// touching the improver.
	p := labeledFig2(false)
	donor, err := Solve(context.Background(), p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if donor.Schedule.Makespan != 7 || !donor.Proven {
		t.Fatalf("donor makespan = %d proven=%v, want 7/true", donor.Schedule.Makespan, donor.Proven)
	}

	ws := WarmStartOf(p, donor.Schedule)
	if ws == nil {
		t.Fatal("WarmStartOf returned nil for a matching schedule")
	}
	// Order must be a permutation sorted by donor start time.
	seen := make([]bool, len(p.Tasks))
	prev := -1
	for _, ti := range ws.Order {
		if ti < 0 || ti >= len(p.Tasks) || seen[ti] {
			t.Fatalf("Order %v is not a permutation", ws.Order)
		}
		seen[ti] = true
		if prev >= 0 && donor.Schedule.Start[ti] < donor.Schedule.Start[prev] {
			t.Fatalf("Order %v not ascending in start time", ws.Order)
		}
		prev = ti
	}
	// Labels are indexed by task and name the donor's chosen option.
	for i, lbl := range ws.Labels {
		want := p.Tasks[i].Options[donor.Schedule.Option[i]].Label
		if lbl != want {
			t.Errorf("Labels[%d] = %q, want %q", i, lbl, want)
		}
	}

	// A different seed so any improver run would explore differently; the
	// shortcut must make that moot.
	res, err := Solve(context.Background(), p, Config{Seed: 99, Warm: ws})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "warmstart" {
		t.Errorf("method = %q, want warmstart shortcut", res.Method)
	}
	if res.Schedule.Makespan != 7 {
		t.Errorf("warm makespan = %d, want 7", res.Schedule.Makespan)
	}
	if !res.Proven {
		t.Errorf("warm result not proven (lb %d)", res.LowerBound)
	}
	if err := res.Schedule.Validate(p); err != nil {
		t.Errorf("warm schedule invalid: %v", err)
	}
}

func TestWarmStartAcrossSpecs(t *testing.T) {
	// Donor: the power-capped instance (both compute phases on the DSA,
	// makespan 9). Recipient: the unconstrained instance. The hint decodes
	// feasibly (labels exist on both), and whether or not it certifies the
	// recipient still reaches its optimum of 7.
	donorP := labeledFig2(true)
	donor, err := Solve(context.Background(), donorP, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws := WarmStartOf(donorP, donor.Schedule)

	p := labeledFig2(false)
	res, err := Solve(context.Background(), p, Config{Seed: 1, Warm: ws})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan != 7 {
		t.Errorf("makespan = %d, want 7", res.Schedule.Makespan)
	}
	if err := res.Schedule.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestWarmStartSeedLabelFallback(t *testing.T) {
	// A label the recipient does not have falls back to the task's fastest
	// feasible option instead of failing the whole hint.
	p := labeledFig2(false)
	ws := &WarmStart{
		Order:  []int{0, 3, 1, 4, 2, 5},
		Labels: []string{"cpu0", "npu-v9", "cpu0", "cpu0", "gpu0", "cpu0"},
	}
	c, ok := ws.seed(p)
	if !ok {
		t.Fatal("seed rejected a repairable hint")
	}
	// Task 1 (m1): unknown label "npu-v9" -> fastest option, the 5-step DSA.
	if got := p.Tasks[1].Options[c.opts[1]]; got.Cluster != 2 || got.Duration != 5 {
		t.Errorf("task 1 fell back to cluster %d/duration %d, want DSA(2)/5", got.Cluster, got.Duration)
	}
	// Task 4 (n1): known label "gpu0" maps to the 3-step GPU option.
	if got := p.Tasks[4].Options[c.opts[4]]; got.Cluster != 1 || got.Duration != 3 {
		t.Errorf("task 4 mapped to cluster %d/duration %d, want GPU(1)/3", got.Cluster, got.Duration)
	}
	// The decoded seed must be feasible as-is.
	s, ok := newSGS(p).decode(c.list, c.opts)
	if !ok {
		t.Fatal("SGS decode of a seeded candidate failed")
	}
	if err := s.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestWarmStartSeedRejectsMisfits(t *testing.T) {
	p := labeledFig2(false)
	cases := []struct {
		name string
		ws   *WarmStart
	}{
		{"nil", nil},
		{"empty", &WarmStart{}},
		{"short order", &WarmStart{Order: []int{0, 1, 2}}},
		{"duplicate index", &WarmStart{Order: []int{0, 0, 1, 2, 3, 4}}},
		{"out of range", &WarmStart{Order: []int{0, 1, 2, 3, 4, 17}}},
	}
	for _, tc := range cases {
		if _, ok := tc.ws.seed(p); ok {
			t.Errorf("%s: seed accepted a hint that does not fit", tc.name)
		}
	}
}

func TestWarmStartMisfitHintStillSolves(t *testing.T) {
	// A hint from an unrelated problem shape must be ignored, not derail the
	// solve: the result is the cold optimum via the normal improver path.
	p := labeledFig2(false)
	res, err := Solve(context.Background(), p, Config{Seed: 1, Warm: &WarmStart{Order: []int{2, 0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method == "warmstart" {
		t.Error("misfit hint took the warmstart shortcut")
	}
	if res.Schedule.Makespan != 7 {
		t.Errorf("makespan = %d, want 7", res.Schedule.Makespan)
	}
}

func TestWarmStartOfRejectsMismatchedSchedule(t *testing.T) {
	p := labeledFig2(false)
	if ws := WarmStartOf(p, Schedule{Start: []int{0}, Option: []int{0}}); ws != nil {
		t.Error("WarmStartOf accepted a schedule with the wrong task count")
	}
}

func TestWarmStartSeedUnlabeledFallsBackFeasible(t *testing.T) {
	// Under the 3 W cap the GPU option (3 W) is still individually feasible,
	// but the point of the fallback is feasibility-aware choice: with empty
	// labels every task gets its fastest feasible option and the decode must
	// respect the cap.
	p := labeledFig2(true)
	ws := &WarmStart{Order: []int{0, 3, 1, 4, 2, 5}}
	c, ok := ws.seed(p)
	if !ok {
		t.Fatal("seed rejected a label-free hint")
	}
	s, ok := newSGS(p).decode(c.list, c.opts)
	if !ok {
		t.Fatal("decode failed")
	}
	if err := s.Validate(p); err != nil {
		t.Fatal(err)
	}
	if peak := s.PeakResource(p, 0); peak > 3+1e-9 {
		t.Errorf("peak power = %g, want <= 3", peak)
	}
}

// TestWarmSeedDecodeIsCounted: hilp_sched_sgs_schedules_total counts every
// decode attempt, the warm-start seed's included when it fails. A seed that
// cannot be decoded leaves the search unchanged, so adding one must add
// exactly one decode to the count.
func TestWarmSeedDecodeIsCounted(t *testing.T) {
	p := labeledFig2(false)
	badList := []int{0, 0, 1, 2, 3, 4} // task 5 is missing
	badOpts := make([]int, len(p.Tasks))
	if _, ok := newSGS(p).decode(badList, badOpts); ok {
		t.Fatal("a list missing a task decoded")
	}
	improvers := map[string]func(octx *obs.Context, seeded bool){
		"anneal": func(octx *obs.Context, seeded bool) {
			cfg := AnnealConfig{Iterations: 200, Seed: 3, Obs: octx}
			if seeded {
				cfg.SeedList, cfg.SeedOpts = badList, badOpts
			}
			Anneal(context.Background(), p, cfg)
		},
		"tabu": func(octx *obs.Context, seeded bool) {
			cfg := TabuConfig{Iterations: 50, Seed: 3, Obs: octx}
			if seeded {
				cfg.SeedList, cfg.SeedOpts = badList, badOpts
			}
			TabuSearch(context.Background(), p, cfg)
		},
	}
	for name, run := range improvers {
		count := func(seeded bool) int64 {
			octx := &obs.Context{Metrics: obs.NewRegistry()}
			run(octx, seeded)
			return octx.Metrics.Counter(obs.MSGSSchedules).Value()
		}
		cold, seeded := count(false), count(true)
		if cold == 0 || seeded != cold+1 {
			t.Errorf("%s: %s = %d with a failing warm seed, %d without; want one more", name, obs.MSGSSchedules, seeded, cold)
		}
	}
}
