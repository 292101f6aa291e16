package scheduler

import (
	"context"
	"testing"
)

// milpImprove runs the "milp" improver on p and reports whether its bound
// proves the incumbent optimal.
func milpImprove(p *Problem, cfg Config) (Schedule, bool, error) {
	out, err := timeIndexed{}.improve(context.Background(), p, cfg, candidate{}, false)
	return out.best, out.bound == out.best.Makespan, err
}

// twoAppExample is the paper's Figure 2 instance (optionally with the 3 W
// power cap of Figure 3) with a tight horizon to keep the ILP small.
func twoAppExample(withPower bool, horizon int) *Problem {
	var resources []Resource
	demand := func(w float64) []float64 { return nil }
	if withPower {
		resources = []Resource{{Name: "power", Capacity: 3}}
		demand = func(w float64) []float64 { return []float64{w} }
	}
	cpu := func(d int) Option { return Option{Cluster: 0, Duration: d, Demand: demand(1)} }
	gpu := func(d int) Option { return Option{Cluster: 1, Duration: d, Demand: demand(3)} }
	dsa := func(d int) Option { return Option{Cluster: 2, Duration: d, Demand: demand(2)} }
	return &Problem{
		Tasks: []Task{
			{Name: "m0", App: 0, Options: []Option{cpu(1)}},
			{Name: "m1", App: 0, Deps: []Dep{{Task: 0}}, Options: []Option{cpu(8), gpu(6), dsa(5)}},
			{Name: "m2", App: 0, Deps: []Dep{{Task: 1}}, Options: []Option{cpu(1)}},
			{Name: "n0", App: 1, Options: []Option{cpu(1)}},
			{Name: "n1", App: 1, Deps: []Dep{{Task: 3}}, Options: []Option{cpu(5), gpu(3), dsa(2)}},
			{Name: "n2", App: 1, Deps: []Dep{{Task: 4}}, Options: []Option{cpu(1)}},
		},
		NumClusters:  3,
		ClusterGroup: []int{0, 1, 2},
		Resources:    resources,
		Horizon:      horizon,
	}
}

func TestSolveFig2Optimal(t *testing.T) {
	p := twoAppExample(false, 10)
	sched, optimal, err := milpImprove(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !optimal {
		t.Fatal("bound does not prove the makespan optimal")
	}
	if sched.Makespan != 7 {
		t.Errorf("makespan = %d, want 7", sched.Makespan)
	}
	if err := sched.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestSolveFig3PowerCap(t *testing.T) {
	p := twoAppExample(true, 12)
	sched, optimal, err := milpImprove(p, Config{GapTarget: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !optimal {
		t.Fatal("bound does not prove the makespan optimal")
	}
	if sched.Makespan != 9 {
		t.Errorf("makespan = %d, want 9", sched.Makespan)
	}
	if peak := sched.PeakResource(p, 0); peak > 3+1e-9 {
		t.Errorf("peak power %g exceeds cap", peak)
	}
}

func TestBuildRejectsTinyHorizon(t *testing.T) {
	p := twoAppExample(false, 5)
	// Critical path of app m is 1+5+1 = 7 > 5: m2 cannot fit.
	if _, err := EncodeMILP(p); err == nil {
		t.Fatal("expected horizon error")
	}
}

func TestLPBoundIsValid(t *testing.T) {
	p := twoAppExample(false, 10)
	lb, err := lpBound(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 || lb > 7 {
		t.Errorf("lpBound = %d, want in (0, 7]", lb)
	}
	// The combinatorial bound should agree or be dominated by/dominate the
	// LP bound; both must stay below the optimum.
	comb := LowerBound(p)
	if comb > 7 {
		t.Errorf("combinatorial bound %d exceeds optimum", comb)
	}
}

func TestMILPAgreesWithCPOnLags(t *testing.T) {
	p := &Problem{
		Tasks: []Task{
			{Name: "a", Options: []Option{{Cluster: 0, Duration: 4}}},
			{Name: "b", Deps: []Dep{{Task: 0, Kind: StartStart, Lag: 2}}, Options: []Option{{Cluster: 1, Duration: 3}}},
		},
		NumClusters:  2,
		ClusterGroup: []int{0, 1},
		Horizon:      12,
	}
	sched, optimal, err := milpImprove(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !optimal || sched.Makespan != 5 {
		t.Fatalf("got optimal=%v makespan=%d, want optimal 5", optimal, sched.Makespan)
	}
	cp, err := Solve(context.Background(), p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Schedule.Makespan != sched.Makespan {
		t.Errorf("CP makespan %d != MILP makespan %d", cp.Schedule.Makespan, sched.Makespan)
	}
}

func TestMILPMatchesExactOnRandomInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cross-check")
	}
	for seed := int64(1); seed <= 6; seed++ {
		p := smallRandomProblem(seed)
		ex := SolveExact(context.Background(), p, ExactConfig{})
		if !ex.Found || !ex.Exhausted {
			continue
		}
		sched, optimal, err := milpImprove(p, Config{ExactNodeLimit: 100000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !optimal {
			continue // budget ran out; nothing to compare
		}
		if sched.Makespan != ex.Schedule.Makespan {
			t.Errorf("seed %d: MILP %d != exact CP %d", seed, sched.Makespan, ex.Schedule.Makespan)
		}
	}
}

func smallRandomProblem(seed int64) *Problem {
	// Deterministic tiny instances: 2 apps x 2 phases, 2-3 clusters.
	rng := seed*2654435761 + 12345
	next := func(mod int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := int((rng >> 33) % int64(mod))
		if v < 0 {
			v += mod
		}
		return v
	}
	numClusters := 2 + next(2)
	groups := make([]int, numClusters)
	for i := range groups {
		groups[i] = i
	}
	var tasks []Task
	for a := 0; a < 2; a++ {
		for ph := 0; ph < 2; ph++ {
			var deps []Dep
			if ph > 0 {
				deps = []Dep{{Task: len(tasks) - 1}}
			}
			nOpts := 1 + next(numClusters)
			opts := make([]Option, 0, nOpts)
			for k := 0; k < nOpts; k++ {
				opts = append(opts, Option{
					Cluster:  (a + ph + k) % numClusters,
					Duration: 1 + next(3),
					Demand:   []float64{1 + float64(next(2))},
				})
			}
			tasks = append(tasks, Task{Name: "t", App: a, Phase: ph, Deps: deps, Options: opts})
		}
	}
	return &Problem{
		Tasks:        tasks,
		NumClusters:  numClusters,
		ClusterGroup: groups,
		Resources:    []Resource{{Name: "power", Capacity: 3}},
		Horizon:      16,
	}
}

func TestWarmStartRoundTrip(t *testing.T) {
	p := twoAppExample(false, 10)
	// Solve with CP first and check that schedule's warm-start vector is
	// feasible in the encoding; the improver warm-starts the same way from
	// the heuristic portfolio.
	cp, err := Solve(context.Background(), p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeMILP(p)
	if err != nil {
		t.Fatal(err)
	}
	x, err := enc.warmStart(cp.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Problem.CheckFeasible(x, 1e-6); err != nil {
		t.Fatalf("warm start not feasible in the encoding: %v", err)
	}
	sched, optimal, err := milpImprove(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !optimal || sched.Makespan != 7 {
		t.Fatalf("warm-started solve: optimal=%v makespan %d, want optimal 7", optimal, sched.Makespan)
	}
}

func TestWarmStartRejectsOutOfHorizon(t *testing.T) {
	p := twoAppExample(false, 10)
	enc, err := EncodeMILP(p)
	if err != nil {
		t.Fatal(err)
	}
	bad := Schedule{
		Start:  []int{50, 51, 57, 0, 1, 4},
		Option: []int{0, 2, 0, 0, 1, 0},
	}
	if _, err := enc.warmStart(bad); err == nil {
		t.Error("accepted a start outside the horizon")
	}
}

func TestMILPMatchesExactOnCappedInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cross-check")
	}
	// Power-capped variants: the cap makes resource constraints bind, which
	// exercises the per-step resource rows of the encoding.
	for seed := int64(10); seed <= 14; seed++ {
		p := smallRandomProblem(seed)
		p.Resources[0].Capacity = 2 // tighten
		feasible := true
		for _, task := range p.Tasks {
			ok := false
			for _, o := range task.Options {
				if o.Demand[0] <= 2 {
					ok = true
				}
			}
			if !ok {
				feasible = false
			}
		}
		if !feasible {
			continue
		}
		ex := SolveExact(context.Background(), p, ExactConfig{})
		if !ex.Found || !ex.Exhausted {
			continue
		}
		sched, optimal, err := milpImprove(p, Config{ExactNodeLimit: 100000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !optimal {
			continue
		}
		if sched.Makespan != ex.Schedule.Makespan {
			t.Errorf("seed %d (capped): MILP %d != exact CP %d", seed, sched.Makespan, ex.Schedule.Makespan)
		}
	}
}
