package scheduler

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

// bigProblem builds an instance large enough that a high-effort solve runs
// for seconds, so mid-solve cancellation is observable.
func bigProblem(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	const numClusters = 5
	groups := []int{0, 1, 2, 3, 4}
	var tasks []Task
	for a := 0; a < 20; a++ {
		for ph := 0; ph < 3; ph++ {
			var deps []Dep
			if ph > 0 {
				deps = []Dep{{Task: len(tasks) - 1}}
			}
			var opts []Option
			for c := 0; c < numClusters; c++ {
				opts = append(opts, Option{
					Cluster:  c,
					Duration: 1 + rng.Intn(8),
					Demand:   []float64{0.5 + rng.Float64()*2},
				})
			}
			tasks = append(tasks, Task{Name: "t", App: a, Phase: ph, Deps: deps, Options: opts})
		}
	}
	return &Problem{
		Tasks:        tasks,
		NumClusters:  numClusters,
		ClusterGroup: groups,
		Resources:    []Resource{{Name: "power", Capacity: 8}},
		Horizon:      600,
	}
}

func TestSolveCancelMidAnnealReturnsIncumbent(t *testing.T) {
	p := bigProblem(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()

	start := time.Now()
	res, err := Solve(ctx, p, Config{Seed: 1, Effort: 500})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cancelled solve errored: %v", err)
	}
	// A 500x-effort anneal on 60 tasks runs for tens of seconds uncancelled;
	// honoring the 10ms deadline must bring the whole solve well under that.
	if elapsed > 2*time.Second {
		t.Errorf("solve took %v after a 10ms deadline", elapsed)
	}
	if !res.Cancelled {
		t.Error("Cancelled not set on deadline-cut solve")
	}
	if res.Proven {
		t.Error("cancelled solve claims proven optimality")
	}
	if err := res.Schedule.Validate(p); err != nil {
		t.Errorf("incumbent schedule invalid: %v", err)
	}
	if res.LowerBound < 0 || res.Schedule.Makespan < res.LowerBound {
		t.Errorf("bound certificate broken: makespan %d < lb %d", res.Schedule.Makespan, res.LowerBound)
	}
	if g := res.Gap(); g < 0 || g > 1 || math.IsNaN(g) {
		t.Errorf("gap %g, want [0, 1]", g)
	}
}

func TestSolvePreCancelledStillReturnsFeasible(t *testing.T) {
	p := bigProblem(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(ctx, p, Config{Seed: 1})
	if err != nil {
		t.Fatalf("pre-cancelled solve errored: %v", err)
	}
	if !res.Cancelled {
		t.Error("Cancelled not set")
	}
	if err := res.Schedule.Validate(p); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestSolveUncancelledNotMarkedCancelled(t *testing.T) {
	p := exampleFig2(false)
	res, err := Solve(context.Background(), p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled {
		t.Error("Cancelled set on a background-context solve")
	}
}

func TestExactCancelNotExhausted(t *testing.T) {
	p := bigProblem(3)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	ex := SolveExact(ctx, p, ExactConfig{NodeLimit: 1 << 30})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("exact search took %v after a 5ms deadline", elapsed)
	}
	if ex.Exhausted {
		t.Error("cancelled exact search claims exhaustion")
	}
	if ex.Found {
		if err := ex.Schedule.Validate(p); err != nil {
			t.Errorf("exact incumbent invalid: %v", err)
		}
	}
}

func TestAnnealAndTabuCancelStopEarly(t *testing.T) {
	p := bigProblem(4)
	for name, run := range map[string]func(ctx context.Context) (Schedule, bool){
		"anneal": func(ctx context.Context) (Schedule, bool) {
			return Anneal(ctx, p, AnnealConfig{Seed: 1, Iterations: 50_000_000, Restarts: 1})
		},
		"tabu": func(ctx context.Context) (Schedule, bool) {
			return TabuSearch(ctx, p, TabuConfig{Seed: 1, Iterations: 50_000_000})
		},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		start := time.Now()
		s, ok := run(ctx)
		elapsed := time.Since(start)
		cancel()
		if elapsed > 2*time.Second {
			t.Errorf("%s ran %v past a 10ms deadline", name, elapsed)
		}
		if !ok {
			t.Errorf("%s returned no schedule", name)
			continue
		}
		if err := s.Validate(p); err != nil {
			t.Errorf("%s schedule invalid: %v", name, err)
		}
	}
}

func TestDestructiveLowerBoundCancelStillValid(t *testing.T) {
	p := bigProblem(5)
	res, err := Solve(context.Background(), p, Config{Seed: 1, Effort: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lb := DestructiveLowerBound(ctx, p, res.Schedule.Makespan)
	if base := LowerBound(p); lb < base {
		t.Errorf("cancelled destructive bound %d below base bound %d", lb, base)
	}
	if lb > res.Schedule.Makespan {
		t.Errorf("bound %d exceeds a feasible makespan %d", lb, res.Schedule.Makespan)
	}
}

// chainProblem is apps chains of phases tasks on three clusters under a
// power cap, each task with a CPU, GPU and DSA option, over horizon steps.
func chainProblem(apps, phases, horizon int) *Problem {
	var tasks []Task
	for a := 0; a < apps; a++ {
		for ph := 0; ph < phases; ph++ {
			var deps []Dep
			if ph > 0 {
				deps = []Dep{{Task: len(tasks) - 1}}
			}
			d := 1 + (a*7+ph*3)%5
			tasks = append(tasks, Task{Name: "t", App: a, Phase: ph, Deps: deps, Options: []Option{
				{Cluster: 0, Duration: 2 * d, Demand: []float64{1}},
				{Cluster: 1, Duration: d, Demand: []float64{3}},
				{Cluster: 2, Duration: d + 1, Demand: []float64{2}},
			}})
		}
	}
	return &Problem{
		Tasks:        tasks,
		NumClusters:  3,
		ClusterGroup: []int{0, 1, 2},
		Resources:    []Resource{{Name: "power", Capacity: 4}},
		Horizon:      horizon,
	}
}

// TestLPBoundDeadline pins the stop hook the simplex polls before every
// pivot. The instance encodes to 1562 variables, a dense tableau of about 6M
// cells (under the milp package's 16.8M cap), and its LP relaxation takes
// about 1 s and 1059 pivots uncut on one Intel Xeon core, so a 100 ms
// deadline lands mid-pivots (the encoding and the tableau are built unpolled
// first: about 15 ms there, 50 ms under the race detector). The bound must
// return within 100 ms of the deadline: one pivot at most runs past it,
// about 1 ms there. Polling every 256 pivots overran it by about 170 ms.
func TestLPBoundDeadline(t *testing.T) {
	const deadline, slack = 100 * time.Millisecond, 100 * time.Millisecond
	p := chainProblem(4, 4, 40)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := lpBound(ctx, p)
	if elapsed := time.Since(start); elapsed > deadline+slack {
		t.Errorf("lpBound returned after %v (err %v), want within %v of a %v deadline", elapsed, err, slack, deadline)
	}
}
