package hilp_test

import (
	"context"
	"strings"
	"testing"

	"hilp"
)

func TestEvaluateQuickstart(t *testing.T) {
	w := hilp.DefaultWorkload()
	spec := hilp.SoC{
		CPUCores:          4,
		GPUSMs:            16,
		DSAs:              []hilp.DSA{{PEs: 16, Target: "LUD"}, {PEs: 16, Target: "HS"}},
		GPUFrequenciesMHz: []float64{765},
	}
	res, err := hilp.Solve(context.Background(), w, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's recommended SoC reaches ~45x on Default.
	if res.Speedup < 35 || res.Speedup > 55 {
		t.Errorf("speedup = %.1f, want ~45 (paper: 45.6)", res.Speedup)
	}
	if res.WLP < 1.5 {
		t.Errorf("WLP = %.2f, want > 1.5", res.WLP)
	}
	if err := res.Sched.Schedule.Validate(res.Instance.Problem); err != nil {
		t.Fatal(err)
	}
}

func TestModelOrdering(t *testing.T) {
	w := hilp.Workload{Name: "mini", Apps: hilp.DefaultWorkload().Apps[:4]}
	spec := hilp.SoC{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}}
	cfg := hilp.SolverConfig{Seed: 1, Effort: 0.3}

	ma, err := hilp.MultiAmdahl(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hilp.Solve(context.Background(), w, spec, hilp.WithSolver(cfg))
	if err != nil {
		t.Fatal(err)
	}
	gab, err := hilp.Solve(context.Background(), w, spec, hilp.WithBaseline(hilp.BaselineGables), hilp.WithSolver(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !(ma.Speedup <= res.Speedup*1.05 && res.Speedup <= gab.Speedup*1.05) {
		t.Errorf("ordering violated: MA %.1f, HILP %.1f, Gables %.1f", ma.Speedup, res.Speedup, gab.Speedup)
	}
}

func TestDesignSpaceSweepFacade(t *testing.T) {
	w := hilp.DefaultWorkload()
	specs := hilp.DesignSpace(w, hilp.SpaceConfig{
		CPUCores: []int{1, 2},
		GPUSMs:   []int{0, 16},
		MaxDSAs:  1,
		DSAPEs:   []int{16},
	})
	for i := range specs {
		specs[i].GPUFrequenciesMHz = []float64{765}
	}
	batch, err := hilp.SolveBatch(context.Background(), w, specs,
		hilp.WithCache(false), hilp.WithWarmStart(false), hilp.WithWorkers(1),
		hilp.WithSolver(hilp.SolverConfig{Seed: 1, Effort: 0.15}))
	if err != nil {
		t.Fatal(err)
	}
	pts := batch.Points
	front := hilp.ParetoFront(pts)
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	best, ok := hilp.BestPoint(pts)
	if !ok || best.Speedup <= 1 {
		t.Errorf("best point %+v", best)
	}
}

func TestCustomGraphFacade(t *testing.T) {
	g := hilp.NewGraph("pipeline").
		Node("produce", 0, hilp.CustomOption{Cluster: "cpu", Sec: 1}).
		Node("consume", 0, hilp.CustomOption{Cluster: "acc", Sec: 2}).
		Edge("produce", "consume")
	tasks, err := g.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	m := hilp.CustomModel{
		Name:     "pipeline",
		Clusters: []hilp.CustomCluster{{Name: "cpu"}, {Name: "acc"}},
		Tasks:    tasks,
	}
	inst, res, err := hilp.SolveModelContext(context.Background(), m, 1, 20, hilp.SolverConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan != 3 {
		t.Errorf("makespan = %d, want 3", res.Schedule.Makespan)
	}
	if !strings.Contains(inst.Gantt(res.Schedule, 40), "acc") {
		t.Error("Gantt missing cluster row")
	}
}

func TestSDAFacade(t *testing.T) {
	m, err := hilp.SDA(hilp.SDAConfig{Instances: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst, res, err := hilp.SolveModelContext(context.Background(), m, 0.5, 100, hilp.SolverConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan <= 0 {
		t.Error("empty SDA schedule")
	}
	if err := res.Schedule.Validate(inst.Problem); err != nil {
		t.Fatal(err)
	}
}
