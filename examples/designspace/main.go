// Designspace runs a reduced version of the paper's §VI exploration: it
// enumerates SoCs combining CPU cores, a GPU, and per-application DSAs,
// evaluates each with HILP and with the MultiAmdahl and Gables baselines,
// and prints the three area/performance Pareto fronts - showing how the
// simplistic WLP treatments of MA (always sequential) and Gables (always
// parallel) recommend different, suboptimal SoCs.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"hilp"
	"hilp/internal/dse"
)

func main() {
	w := hilp.DefaultWorkload()

	// A reduced space so the example finishes in seconds: 2 CPU counts, 3
	// GPU options, up to 2 DSAs of 4 or 16 PEs -> 2*3*(1+2*2) = 30 SoCs.
	specs := hilp.DesignSpace(w, hilp.SpaceConfig{
		CPUCores: []int{1, 4},
		GPUSMs:   []int{0, 16, 64},
		MaxDSAs:  2,
		DSAPEs:   []int{4, 16},
	})
	for i := range specs {
		specs[i].GPUFrequenciesMHz = []float64{765}
	}
	fmt.Printf("evaluating %d SoC configurations on the %s workload...\n\n", len(specs), w.Name)

	cfg := hilp.SolverConfig{Seed: 1, Effort: 0.25, Restarts: 1}
	workers := runtime.NumCPU()

	// SolveBatch runs the sweep engine: canonically identical SoCs are
	// solved once and neighboring SoCs warm-start each other's search.
	batch, err := hilp.SolveBatch(context.Background(), w, specs,
		hilp.WithWorkers(workers), hilp.WithSolver(cfg))
	if err != nil {
		log.Fatal(err)
	}
	hilpPts := batch.Points
	bo := dse.BatchOptions{Workers: workers}
	maPts := dse.Run(context.Background(), specs, bo, dse.MAEvaluator(w)).Points
	gabPts := dse.Run(context.Background(), specs, bo, dse.GablesEvaluator(w, hilp.DSEProfile, cfg)).Points

	show := func(name string, pts []hilp.Point) {
		for _, p := range pts {
			if p.Err != nil {
				log.Fatalf("%s: %s: %v", name, p.Label, p.Err)
			}
		}
		front := hilp.ParetoFront(pts)
		fmt.Printf("%s Pareto front (%d of %d SoCs):\n", name, len(front), len(pts))
		for _, p := range front {
			fmt.Printf("  %-16s %7.1f mm^2  %6.1fx  %s\n", p.Label, p.AreaMM2, p.Speedup, p.Mix)
		}
		best, _ := hilp.BestPoint(pts)
		fmt.Printf("  -> best: %s at %.1fx\n\n", best.Label, best.Speedup)
	}

	show("MultiAmdahl", maPts)
	show("Gables", gabPts)
	show("HILP", hilpPts)

	fmt.Printf("sweep engine: %d points, %d solved, %d cache hits, %d warm-started\n\n",
		batch.Stats.Points, batch.Stats.Solved, batch.Stats.CacheHits, batch.Stats.WarmStarted)
	fmt.Println("Note how MA favors one big GPU, Gables favors many small accelerators,")
	fmt.Println("and HILP recommends a workload-matched mix (the paper's Key Insight 1).")
}
