package scheduler

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveFig2Unconstrained(t *testing.T) {
	// The paper's Figure 2: the optimal schedule runs m1 on the DSA and n1
	// on the GPU for a makespan of 7 (vs 17 naive), a 2.4x speedup.
	p := exampleFig2(false)
	res, err := Solve(context.Background(), p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan != 7 {
		t.Fatalf("makespan = %d, want 7", res.Schedule.Makespan)
	}
	if !res.Proven {
		t.Errorf("expected a proven optimum for the 6-task example (method %s, lb %d)", res.Method, res.LowerBound)
	}
	if err := res.Schedule.Validate(p); err != nil {
		t.Fatal(err)
	}
	// m1 must be on the DSA (cluster 2), n1 on the GPU (cluster 1).
	m1 := p.Tasks[1].Options[res.Schedule.Option[1]].Cluster
	n1 := p.Tasks[4].Options[res.Schedule.Option[4]].Cluster
	if m1 != 2 || n1 != 1 {
		t.Errorf("m1 on cluster %d, n1 on cluster %d; want DSA(2) and GPU(1)", m1, n1)
	}
	// Average WLP of the optimal schedule is 12/7 ~= 1.71 (paper: 1.7).
	wlp := res.Schedule.WLP(p)
	if math.Abs(wlp-12.0/7.0) > 1e-9 {
		t.Errorf("WLP = %g, want %g", wlp, 12.0/7.0)
	}
}

func TestSolveFig3PowerConstrained(t *testing.T) {
	// Under a 3 W cap the GPU (3 W) cannot overlap anything; the optimal
	// schedule serializes both compute phases on the DSA (paper Figure 3)
	// for a makespan of 9.
	p := exampleFig2(true)
	res, err := Solve(context.Background(), p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan != 9 {
		t.Fatalf("makespan = %d, want 9", res.Schedule.Makespan)
	}
	if err := res.Schedule.Validate(p); err != nil {
		t.Fatal(err)
	}
	if peak := res.Schedule.PeakResource(p, 0); peak > 3+1e-9 {
		t.Errorf("peak power = %g, want <= 3", peak)
	}
}

func TestExactProofLabelNamesImprover(t *testing.T) {
	// On the power-capped Figure 2 instance the exact stage proves the
	// improver's schedule optimal without finding a better one; the label
	// names the improver that found it.
	for _, improver := range []string{"anneal", "tabu"} {
		res, err := Solve(context.Background(), exampleFig2(true), Config{Seed: 1, Improver: improver})
		if err != nil {
			t.Fatal(err)
		}
		if want := improver + "+exact-proof"; res.Method != want {
			t.Errorf("improver %s: method %q, want %q", improver, res.Method, want)
		}
	}
}

func TestSolveNaiveSingleCPU(t *testing.T) {
	// With only the CPU available everything serializes: makespan 17.
	p := exampleFig2(false)
	for i := range p.Tasks {
		p.Tasks[i].Options = p.Tasks[i].Options[:1]
	}
	res, err := Solve(context.Background(), p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan != 17 {
		t.Fatalf("makespan = %d, want 17", res.Schedule.Makespan)
	}
	if wlp := res.Schedule.WLP(p); math.Abs(wlp-1) > 1e-9 {
		t.Errorf("WLP = %g, want 1 for a fully serialized schedule", wlp)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := exampleFig2(true)
	// Drop the power cap below every option of task m1.
	p.Resources[0].Capacity = 0.5
	if _, err := Solve(context.Background(), p, Config{Seed: 1}); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestSolveEmptyProblem(t *testing.T) {
	p := &Problem{NumClusters: 1, ClusterGroup: []int{0}, Horizon: 10}
	res, err := Solve(context.Background(), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan != 0 || !res.Proven {
		t.Errorf("empty problem: makespan=%d proven=%v, want 0/true", res.Schedule.Makespan, res.Proven)
	}
}

func TestSolveSingleTask(t *testing.T) {
	p := &Problem{
		Tasks:        []Task{{Name: "only", Options: []Option{{Cluster: 0, Duration: 5}}}},
		NumClusters:  1,
		ClusterGroup: []int{0},
		Horizon:      10,
	}
	res, err := Solve(context.Background(), p, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan != 5 {
		t.Errorf("makespan = %d, want 5", res.Schedule.Makespan)
	}
}

func TestSolveStartStartLag(t *testing.T) {
	// b may start 3 steps after a STARTS (not finishes).
	p := &Problem{
		Tasks: []Task{
			{Name: "a", Options: []Option{{Cluster: 0, Duration: 10}}},
			{Name: "b", Deps: []Dep{{Task: 0, Kind: StartStart, Lag: 3}}, Options: []Option{{Cluster: 1, Duration: 2}}},
		},
		NumClusters:  2,
		ClusterGroup: []int{0, 1},
		Horizon:      30,
	}
	res, err := Solve(context.Background(), p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Start[1] != 3 {
		t.Errorf("b starts at %d, want 3", res.Schedule.Start[1])
	}
	if res.Schedule.Makespan != 10 {
		t.Errorf("makespan = %d, want 10", res.Schedule.Makespan)
	}
}

func TestSolveFinishStartLag(t *testing.T) {
	p := &Problem{
		Tasks: []Task{
			{Name: "a", Options: []Option{{Cluster: 0, Duration: 4}}},
			{Name: "b", Deps: []Dep{{Task: 0, Kind: FinishStart, Lag: 2}}, Options: []Option{{Cluster: 0, Duration: 1}}},
		},
		NumClusters:  1,
		ClusterGroup: []int{0},
		Horizon:      20,
	}
	res, err := Solve(context.Background(), p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Start[1] != 6 {
		t.Errorf("b starts at %d, want 6 (finish 4 + lag 2)", res.Schedule.Start[1])
	}
}

func TestSolveDVFSAliasGroups(t *testing.T) {
	// Two alias clusters for the same device (group 1): a fast high-power
	// point and a slow low-power point; power cap allows only the slow one
	// to co-run with the CPU task.
	p := &Problem{
		Tasks: []Task{
			{Name: "cpu-work", App: 0, Options: []Option{{Cluster: 0, Duration: 6, Demand: []float64{1}}}},
			{Name: "accel-work", App: 1, Options: []Option{
				{Cluster: 1, Duration: 2, Demand: []float64{4}, Label: "fast"},
				{Cluster: 2, Duration: 5, Demand: []float64{1.5}, Label: "slow"},
			}},
		},
		NumClusters:  3,
		ClusterGroup: []int{0, 1, 1},
		Resources:    []Resource{{Name: "power", Capacity: 3}},
		Horizon:      40,
	}
	res, err := Solve(context.Background(), p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Slow point co-runs: makespan 6. Fast point must serialize: 2 + 6 = 8.
	if res.Schedule.Makespan != 6 {
		t.Fatalf("makespan = %d, want 6 (slow DVFS point co-runs)", res.Schedule.Makespan)
	}
	if got := p.Tasks[1].Options[res.Schedule.Option[1]].Label; got != "slow" {
		t.Errorf("accel-work ran at %q, want slow point", got)
	}
}

func TestExactMatchesAnnealOnExample(t *testing.T) {
	p := exampleFig2(false)
	ex := SolveExact(context.Background(), p, ExactConfig{})
	if !ex.Found || !ex.Exhausted {
		t.Fatalf("exact: found=%v exhausted=%v", ex.Found, ex.Exhausted)
	}
	if ex.Schedule.Makespan != 7 {
		t.Errorf("exact makespan = %d, want 7", ex.Schedule.Makespan)
	}
	if err := ex.Schedule.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundNeverExceedsOptimal(t *testing.T) {
	for _, withPower := range []bool{false, true} {
		p := exampleFig2(withPower)
		lb := LowerBound(p)
		want := 7
		if withPower {
			want = 9
		}
		if lb > want {
			t.Errorf("withPower=%v: LowerBound = %d exceeds optimal %d", withPower, lb, want)
		}
		if lb <= 0 {
			t.Errorf("withPower=%v: LowerBound = %d, want > 0", withPower, lb)
		}
	}
}

func TestCriticalPathBound(t *testing.T) {
	p := exampleFig2(false)
	// Chain m: 1 + 5 + 1 = 7 with min durations.
	if got := criticalPathBound(p); got != 7 {
		t.Errorf("criticalPathBound = %d, want 7", got)
	}
}

func TestResourceEnergyBound(t *testing.T) {
	p := exampleFig2(true)
	// Min energy: setups/teardowns 4x(1x1) + m1 min(8*1,6*3,5*2)=8 + n1
	// min(5,9,4)=4 -> 16 W-steps / 3 W cap -> ceil = 6.
	if got := resourceEnergyBound(p); got != 6 {
		t.Errorf("resourceEnergyBound = %d, want 6", got)
	}
}

func TestGroupLoadBound(t *testing.T) {
	p := exampleFig2(false)
	// CPU-only tasks: m0, m2, n0, n2 -> 4 steps on group 0.
	if got := groupLoadBound(p); got != 4 {
		t.Errorf("groupLoadBound = %d, want 4", got)
	}
}

// randomProblem builds a random but valid instance from a seed.
func randomProblem(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	numClusters := 2 + rng.Intn(4)
	groups := make([]int, numClusters)
	for i := range groups {
		groups[i] = i
	}
	// Occasionally alias the last two clusters into one device group.
	if numClusters >= 2 && rng.Intn(3) == 0 {
		groups[numClusters-1] = groups[numClusters-2]
	}
	resources := []Resource{{Name: "power", Capacity: 4 + rng.Float64()*6}}

	numApps := 1 + rng.Intn(3)
	var tasks []Task
	for a := 0; a < numApps; a++ {
		numPhases := 1 + rng.Intn(3)
		for ph := 0; ph < numPhases; ph++ {
			var deps []Dep
			if ph > 0 {
				deps = []Dep{{Task: len(tasks) - 1}}
			}
			numOpts := 1 + rng.Intn(numClusters)
			opts := make([]Option, 0, numOpts)
			perm := rng.Perm(numClusters)
			for k := 0; k < numOpts; k++ {
				opts = append(opts, Option{
					Cluster:  perm[k],
					Duration: 1 + rng.Intn(6),
					Demand:   []float64{rng.Float64() * 3},
				})
			}
			tasks = append(tasks, Task{
				Name:    "t",
				App:     a,
				Phase:   ph,
				Deps:    deps,
				Options: opts,
			})
		}
	}
	return &Problem{
		Tasks:        tasks,
		NumClusters:  numClusters,
		ClusterGroup: groups,
		Resources:    resources,
		Horizon:      100,
	}
}

// TestSolveProperty checks on random instances that (i) the result schedule
// validates against every constraint, and (ii) the makespan is never below
// the proven lower bound.
func TestSolveProperty(t *testing.T) {
	f := func(seed int16) bool {
		p := randomProblem(int64(seed))
		if p.Validate() != nil {
			return false
		}
		res, err := Solve(context.Background(), p, Config{Seed: int64(seed), Effort: 0.3})
		if err != nil {
			return false
		}
		if res.Schedule.Validate(p) != nil {
			return false
		}
		return res.Schedule.Makespan >= res.LowerBound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestExactNeverWorseThanAnneal cross-checks the two search strategies on
// small random instances.
func TestExactNeverWorseThanAnneal(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		p := randomProblem(seed)
		if len(p.Tasks) > 8 {
			continue
		}
		ann, ok := Anneal(context.Background(), p, AnnealConfig{Seed: seed, Iterations: 1500})
		if !ok {
			continue
		}
		ex := SolveExact(context.Background(), p, ExactConfig{})
		if !ex.Exhausted {
			continue
		}
		if ex.Found && ex.Schedule.Makespan > ann.Makespan {
			t.Errorf("seed %d: exact %d worse than anneal %d", seed, ex.Schedule.Makespan, ann.Makespan)
		}
		if !ex.Found {
			// Exhausted without improving on no bound means no feasible
			// schedule at all, which contradicts the anneal result.
			t.Errorf("seed %d: exact found nothing but anneal found makespan %d", seed, ann.Makespan)
		}
		if err := ex.Schedule.Validate(p); ex.Found && err != nil {
			t.Errorf("seed %d: exact schedule invalid: %v", seed, err)
		}
	}
}

func TestWLPGablesStyle(t *testing.T) {
	// Dependency-free variant of Figure 2 (Gables parallel mode): WLP 2.4.
	p := exampleFig2(false)
	for i := range p.Tasks {
		p.Tasks[i].Deps = nil
	}
	res, err := Solve(context.Background(), p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan != 5 {
		t.Fatalf("makespan = %d, want 5", res.Schedule.Makespan)
	}
	if wlp := res.Schedule.WLP(p); math.Abs(wlp-12.0/5.0) > 1e-9 {
		t.Errorf("WLP = %g, want 2.4", wlp)
	}
}

func TestScheduleResourceProfile(t *testing.T) {
	p := exampleFig2(true)
	res, err := Solve(context.Background(), p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	profile := res.Schedule.ResourceProfile(p, 0)
	if len(profile) != res.Schedule.Makespan {
		t.Fatalf("profile length %d, want %d", len(profile), res.Schedule.Makespan)
	}
	sum := 0.0
	for _, u := range profile {
		sum += u
	}
	if sum <= 0 {
		t.Error("profile is all zero")
	}
}

// TestSolveSeedStability guards against seed-sensitive regressions: on the
// proven example every seed must find the optimum, and on random instances
// the spread across seeds must stay small.
func TestSolveSeedStability(t *testing.T) {
	p := exampleFig2(false)
	for seed := int64(0); seed < 10; seed++ {
		res, err := Solve(context.Background(), p, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedule.Makespan != 7 {
			t.Errorf("seed %d: makespan %d, want 7", seed, res.Schedule.Makespan)
		}
	}

	q := randomProblem(42)
	best, worst := 1<<30, 0
	for seed := int64(0); seed < 6; seed++ {
		res, err := Solve(context.Background(), q, Config{Seed: seed, Effort: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedule.Makespan < best {
			best = res.Schedule.Makespan
		}
		if res.Schedule.Makespan > worst {
			worst = res.Schedule.Makespan
		}
	}
	if float64(worst) > 1.3*float64(best)+1 {
		t.Errorf("seed spread too wide: best %d, worst %d", best, worst)
	}
}
