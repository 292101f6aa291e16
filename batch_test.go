package hilp_test

import (
	"context"
	"testing"

	"hilp"
)

func batchSpecs() []hilp.SoC {
	return []hilp.SoC{
		{CPUCores: 1},
		{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}},
		{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}}, // canonical duplicate
		{CPUCores: 4, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}},
	}
}

func TestSolveBatchDefaults(t *testing.T) {
	// Cache and warm starts are on by default for batches; pruning is not.
	w := miniWorkload()
	res, err := hilp.SolveBatch(context.Background(), w, batchSpecs(),
		hilp.WithProfile(quickProfile),
		hilp.WithSolver(hilp.SolverConfig{Seed: 1, Effort: 0.2}),
		hilp.WithWorkers(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("%d points, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Err != nil {
			t.Fatalf("%s: %v", p.Label, p.Err)
		}
	}
	s := res.Stats
	if s.Points != 4 || s.CacheHits != 1 || s.Solved != 3 || s.Pruned != 0 {
		t.Errorf("stats = %+v, want 4 points / 3 solved / 1 cache hit / 0 pruned", s)
	}
	if s.WarmStarted == 0 {
		t.Error("no point warm-started on a single worker with default options")
	}
	if !res.Points[2].CacheHit {
		t.Error("duplicate spec not served from cache")
	}
	if res.Points[2].Speedup != res.Points[1].Speedup ||
		res.Points[2].MakespanSec != res.Points[1].MakespanSec {
		t.Error("cache hit not byte-identical to its owner")
	}
}

func TestSolveBatchOptOut(t *testing.T) {
	w := miniWorkload()
	res, err := hilp.SolveBatch(context.Background(), w, batchSpecs(),
		hilp.WithProfile(quickProfile),
		hilp.WithSolver(hilp.SolverConfig{Seed: 1, Effort: 0.2}),
		hilp.WithWorkers(1),
		hilp.WithCache(false),
		hilp.WithWarmStart(false),
	)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Stats; s.CacheHits != 0 || s.WarmStarted != 0 || s.Solved != 4 {
		t.Errorf("opted-out batch still used the engine: %+v", s)
	}
}

func TestSolveBatchPruning(t *testing.T) {
	// A dominance ladder: the d2^16 rung meets the gap target and dominates
	// its d1^16 sub-rung; the cheap 1-core GPU point certifies that the
	// sub-rung's analytic speedup ceiling is already achieved at lower area.
	w := hilp.DefaultWorkload()
	specs := []hilp.SoC{
		{CPUCores: 1, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}},
		{CPUCores: 2, DSAs: []hilp.DSA{{PEs: 16, Target: "BFS"}, {PEs: 16, Target: "HW"}}},
		{CPUCores: 2, DSAs: []hilp.DSA{{PEs: 16, Target: "BFS"}}},
	}
	res, err := hilp.SolveBatch(context.Background(), w, specs,
		hilp.WithSolver(hilp.SolverConfig{Seed: 1, Effort: 0.25, Restarts: 1}),
		hilp.WithWorkers(1),
		hilp.WithPruning(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Pruned != 1 {
		t.Fatalf("stats = %+v, want exactly 1 pruned point", res.Stats)
	}
	p := res.Points[2]
	if !p.Pruned || p.PrunedBy != res.Points[1].Label || p.SpeedupBound <= 1 {
		t.Errorf("pruned point lacks its certificate: %+v", p)
	}
	// Pruned points never enter front or best selection.
	for _, fp := range hilp.ParetoFront(res.Points) {
		if fp.Pruned {
			t.Error("pruned point on the Pareto front")
		}
	}
}

func TestSolveBatchCancelled(t *testing.T) {
	w := miniWorkload()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := hilp.SolveBatch(ctx, w, batchSpecs(),
		hilp.WithProfile(quickProfile), hilp.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("%d points, want 4 even when cancelled", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Err == nil && !p.Cancelled {
			t.Errorf("%s: neither failed nor cancelled under a dead context", p.Label)
		}
	}
}

// TestSolveBatchColdMatchesSolve checks the batch path against the
// single-point one under every baseline: with cache and warm starts off, each
// batch point carries exactly the metrics Solve returns for its spec.
func TestSolveBatchColdMatchesSolve(t *testing.T) {
	w := miniWorkload()
	specs := batchSpecs()
	for _, b := range []hilp.Baseline{hilp.BaselineHILP, hilp.BaselineGables, hilp.BaselineMultiAmdahl} {
		opts := []hilp.Option{
			hilp.WithBaseline(b),
			hilp.WithProfile(quickProfile),
			hilp.WithSolver(hilp.SolverConfig{Seed: 1, Effort: 0.2}),
		}
		res, err := hilp.SolveBatch(context.Background(), w, specs,
			append(opts, hilp.WithCache(false), hilp.WithWarmStart(false), hilp.WithWorkers(1))...)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if res.Stats.Solved != len(specs) {
			t.Errorf("%s: %d of %d points solved", b, res.Stats.Solved, len(specs))
		}
		for i, p := range res.Points {
			want, err := hilp.Solve(context.Background(), w, specs[i], opts...)
			if err != nil || p.Err != nil {
				t.Fatalf("%s: point %d: solve error %v, batch error %v", b, i, err, p.Err)
			}
			if p.Speedup != want.Speedup || p.MakespanSec != want.MakespanSec ||
				p.Gap != want.Gap || p.WLP != want.WLP {
				t.Errorf("%s: point %d = {speedup %g makespan %g gap %g wlp %g}, Solve = {%g %g %g %g}",
					b, i, p.Speedup, p.MakespanSec, p.Gap, p.WLP,
					want.Speedup, want.MakespanSec, want.Gap, want.WLP)
			}
		}
	}
}
