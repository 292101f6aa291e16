package experiments

import (
	"context"
	"fmt"
	"strings"

	"hilp/internal/dse"
	"hilp/internal/rodinia"
	"hilp/internal/soc"
)

// Fig7Result is the §VI design-space exploration: the same 372-SoC space
// evaluated by MA, Gables, and HILP (paper Fig. 7).
type Fig7Result struct {
	MA     []dse.Point
	Gables []dse.Point
	HILP   []dse.Point

	MAFront     []dse.Point
	GablesFront []dse.Point
	HILPFront   []dse.Point
}

// fig7Space enumerates the paper's 372-SoC design space, restricted to the
// experiment's DVFS subset and the given constraints.
func fig7Space(w rodinia.Workload, opts Options, powerW, advantage float64) []soc.Spec {
	cfg := soc.SpaceConfig{}
	if opts.Space != nil {
		cfg = *opts.Space
	}
	cfg.PowerW = powerW
	cfg.Advantage = advantage
	specs := soc.DesignSpace(w, cfg)
	for i := range specs {
		specs[i].GPUFrequenciesMHz = opts.DVFSPoints
	}
	return specs
}

// hilpSweep evaluates every spec with HILP as a plain cold sweep: no
// cross-point reuse, so each point is one independent solve.
func hilpSweep(w rodinia.Workload, specs []soc.Spec, opts Options) []dse.Point {
	return dse.RunHILP(context.Background(), w, specs, dseProfile(), opts.schedConfig(), dse.BatchOptions{Workers: opts.Workers}).Points
}

// Fig7DesignSpace sweeps the full design space under the paper's 600 W
// budget with all three models.
func Fig7DesignSpace(opts Options) (*Fig7Result, error) {
	opts = opts.withDefaults()
	w := rodinia.DefaultWorkload()
	specs := fig7Space(w, opts, soc.DefaultPowerBudget, soc.DefaultDSAAdvantage)

	ctx, bo := context.Background(), dse.BatchOptions{Workers: opts.Workers}
	out := &Fig7Result{}
	out.MA = dse.Run(ctx, specs, bo, dse.MAEvaluator(w)).Points
	out.Gables = dse.Run(ctx, specs, bo, dse.GablesEvaluator(w, dseProfile(), opts.schedConfig())).Points
	out.HILP = hilpSweep(w, specs, opts)
	for _, pts := range [][]dse.Point{out.MA, out.Gables, out.HILP} {
		for _, p := range pts {
			if p.Err != nil {
				return nil, fmt.Errorf("experiments: fig 7 point %s: %w", p.Label, p.Err)
			}
		}
	}
	out.MAFront = dse.ParetoFront(out.MA)
	out.GablesFront = dse.ParetoFront(out.Gables)
	out.HILPFront = dse.ParetoFront(out.HILP)
	return out, nil
}

// RenderFig7 formats the three Pareto fronts and the headline comparison.
func RenderFig7(r *Fig7Result) string {
	var b strings.Builder
	b.WriteString("Figure 7 - the 372-SoC design space for Default (600 W)\n\n")
	renderFront := func(name string, front []dse.Point) {
		var rows [][]string
		for _, p := range front {
			rows = append(rows, []string{p.Label, f1(p.AreaMM2), f1(p.Speedup), p.Mix.String()})
		}
		fmt.Fprintf(&b, "%s Pareto front (%d of 372 SoCs):\n", name, len(front))
		b.WriteString(renderTable([]string{"SoC", "area mm^2", "speedup", "mix"}, rows))
		b.WriteByte('\n')
	}
	renderFront("MultiAmdahl", r.MAFront)
	renderFront("Gables", r.GablesFront)
	renderFront("HILP", r.HILPFront)

	maBest, _ := dse.Best(r.MA)
	gabBest, _ := dse.Best(r.Gables)
	hilpBest, _ := dse.Best(r.HILP)
	fmt.Fprintf(&b, "Highest-performing SoCs: MA %s (%.1fx @ %.1f mm^2), Gables %s (%.1fx @ %.1f mm^2), HILP %s (%.1fx @ %.1f mm^2)\n",
		maBest.Label, maBest.Speedup, maBest.AreaMM2,
		gabBest.Label, gabBest.Speedup, gabBest.AreaMM2,
		hilpBest.Label, hilpBest.Speedup, hilpBest.AreaMM2)
	fmt.Fprintf(&b, "Paper: MA (c1,g64,d0^0) 18.2x @ 432.6; Gables (c4,g4,d3^4) 62.1x @ 170.4; HILP (c4,g16,d2^16) 45.6x @ 378.4\n")
	return b.String()
}

// Fig8aResult sweeps the design space with HILP under three power budgets
// (paper Fig. 8a: 20 W, 50 W, 600 W).
type Fig8aResult struct {
	Budgets []float64
	Points  map[float64][]dse.Point
	Fronts  map[float64][]dse.Point
}

// Fig8aPowerConstrained reproduces Fig. 8a.
func Fig8aPowerConstrained(opts Options) (*Fig8aResult, error) {
	opts = opts.withDefaults()
	w := rodinia.DefaultWorkload()
	out := &Fig8aResult{
		Budgets: []float64{20, 50, 600},
		Points:  map[float64][]dse.Point{},
		Fronts:  map[float64][]dse.Point{},
	}
	for _, budget := range out.Budgets {
		specs := fig7Space(w, opts, budget, soc.DefaultDSAAdvantage)
		pts := hilpSweep(w, specs, opts)
		for i := range pts {
			// Severely power-capped SoCs whose every unit exceeds the budget
			// are genuinely infeasible; keep them out of the front but do
			// not fail the sweep.
			if pts[i].Err != nil {
				pts[i].Speedup = 0
			}
		}
		out.Points[budget] = pts
		out.Fronts[budget] = dse.ParetoFront(pts)
	}
	return out, nil
}

// RenderFig8a formats the power-constrained fronts.
func RenderFig8a(r *Fig8aResult) string {
	var b strings.Builder
	b.WriteString("Figure 8a - Pareto fronts under power constraints (Default)\n")
	for _, budget := range r.Budgets {
		var rows [][]string
		for _, p := range r.Fronts[budget] {
			rows = append(rows, []string{p.Label, f1(p.AreaMM2), f1(p.Speedup), p.Mix.String()})
		}
		fmt.Fprintf(&b, "\n%.0f W front:\n", budget)
		b.WriteString(renderTable([]string{"SoC", "area mm^2", "speedup", "mix"}, rows))
		if best, ok := dse.Best(r.Points[budget]); ok {
			fmt.Fprintf(&b, "top performer: %s (%.1fx)\n", best.Label, best.Speedup)
		}
	}
	return b.String()
}

// Fig8bResult sweeps the design space with HILP at different DSA efficiency
// advantages (paper Fig. 8b: 2x, 4x, 8x) under the 600 W budget.
type Fig8bResult struct {
	Advantages []float64
	Points     map[float64][]dse.Point
	Fronts     map[float64][]dse.Point
}

// Fig8bDSAAdvantage reproduces Fig. 8b.
func Fig8bDSAAdvantage(opts Options) (*Fig8bResult, error) {
	opts = opts.withDefaults()
	w := rodinia.DefaultWorkload()
	out := &Fig8bResult{
		Advantages: []float64{2, 4, 8},
		Points:     map[float64][]dse.Point{},
		Fronts:     map[float64][]dse.Point{},
	}
	for _, adv := range out.Advantages {
		specs := fig7Space(w, opts, soc.DefaultPowerBudget, adv)
		pts := hilpSweep(w, specs, opts)
		for _, p := range pts {
			if p.Err != nil {
				return nil, fmt.Errorf("experiments: fig 8b point %s: %w", p.Label, p.Err)
			}
		}
		out.Points[adv] = pts
		out.Fronts[adv] = dse.ParetoFront(pts)
	}
	return out, nil
}

// RenderFig8b formats the DSA-advantage fronts.
func RenderFig8b(r *Fig8bResult) string {
	var b strings.Builder
	b.WriteString("Figure 8b - DSA efficiency advantage (Default, 600 W)\n")
	for _, adv := range r.Advantages {
		var rows [][]string
		for _, p := range r.Fronts[adv] {
			rows = append(rows, []string{p.Label, f1(p.AreaMM2), f1(p.Speedup), p.Mix.String()})
		}
		fmt.Fprintf(&b, "\n%gx advantage front:\n", adv)
		b.WriteString(renderTable([]string{"SoC", "area mm^2", "speedup", "mix"}, rows))
		if best, ok := dse.Best(r.Points[adv]); ok {
			fmt.Fprintf(&b, "top performer: %s (%.1fx)\n", best.Label, best.Speedup)
		}
	}
	return b.String()
}
