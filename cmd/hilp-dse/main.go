// Command hilp-dse sweeps an SoC design space with HILP (optionally also
// with the MultiAmdahl and Gables baselines) and reports the evaluated
// points and their area/performance Pareto front, reproducing the paper's
// §VI methodology from the command line.
//
// Sweeps run through the warm-start sweep engine: canonically identical
// SoCs are solved once (-cache), neighboring SoCs seed each other's search
// (-warm-start), and dominated SoCs can be skipped with a certified bound
// (-prune).
//
//	hilp-dse -workload Default -power 600                # the 372-SoC space
//	hilp-dse -cpus 1,2 -gpus 0,16 -max-dsas 2 -pareto    # a reduced space
//	hilp-dse -csv > points.csv                           # machine-readable
//	hilp-dse -prune -v                                   # engine stats live
//	hilp-dse -checkpoint ckpt/                           # journal every point
//	hilp-dse -checkpoint ckpt/ -resume                   # continue after a crash
//
// SIGINT/SIGTERM drain gracefully: in-flight solves return their best
// incumbents, the checkpoint (if any) gets a final flush, and the best
// incumbent so far is printed with its optimality-gap certificate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hilp"
	"hilp/internal/dse"
	"hilp/internal/faults"
	"hilp/internal/journal"
	"hilp/internal/obs"
	"hilp/internal/report"
	"hilp/internal/wire"
)

func main() {
	var (
		workloadName = flag.String("workload", "Default", "workload: Rodinia, Default, or Optimized")
		cpus         = flag.String("cpus", "1,2,4", "CPU-core counts to sweep")
		gpus         = flag.String("gpus", "0,4,16,64", "GPU SM counts to sweep (0 = none)")
		maxDSAs      = flag.Int("max-dsas", 10, "maximum number of DSAs (0 = none)")
		pes          = flag.String("pes", "1,4,16", "DSA PE counts to sweep")
		powerW       = flag.Float64("power", 600, "power budget in watts")
		advantage    = flag.Float64("dsa-advantage", 4, "DSA efficiency advantage")
		dvfs         = flag.String("dvfs", "210,300,420,600,765", "GPU DVFS points in MHz")
		workers      = flag.Int("workers", 0, "parallel evaluations (0 = GOMAXPROCS)")
		seed         = flag.Int64("seed", 1, "solver random seed")
		effort       = flag.Float64("effort", 0.25, "solver effort multiplier")
		paretoOnly   = flag.Bool("pareto", false, "print only the Pareto front")
		withBase     = flag.Bool("baselines", false, "also sweep MultiAmdahl and Gables")
		csv          = flag.Bool("csv", false, "emit CSV instead of a table")
		reportPath   = flag.String("report", "", "write an HTML run report (plus a .json twin): the sweep's Pareto front and a full re-evaluation of its best point")
		faultSpec    = flag.String("faults", "", "chaos-test fault injection spec, e.g. seed=1,rate=0.1,kinds=panic+timeout,sites=solve (empty disables)")
		follow       = flag.Bool("follow", false, "tail the live event bus to stderr: per-point completions, incumbent improvements, and solver stage transitions, one JSON line each")
		useCache     = flag.Bool("cache", true, "reuse solves across canonically identical SoCs (sweep engine)")
		warmStart    = flag.Bool("warm-start", true, "seed each point's search with its nearest solved neighbor's schedule (sweep engine)")
		prune        = flag.Bool("prune", false, "skip dominated SoCs with a certified speedup bound instead of solving them (sweep engine)")
		ckptDir      = flag.String("checkpoint", "", "crash-recovery journal directory: every completed point is journaled so an interrupted sweep can continue with -resume (empty disables)")
		doResume     = flag.Bool("resume", false, "replay the -checkpoint journal and skip its completed points (refused if the journal was recorded against different inputs)")
	)
	var ocli obs.CLI
	ocli.Register(nil)
	flag.Parse()
	// Every run gets a correlation ID, as in hilp: the sweep's log lines,
	// start/done events and OTLP root span carry it, and each point extends
	// it as "<run>/p<i>", so a -follow consumer can tie every point and
	// solver event to its sweep.
	reqID := obs.NewRequestID()
	ocli.RequestID = reqID
	octx := ocli.Context()

	// -follow attaches the telemetry bus and tails it from a goroutine: the
	// same event stream hilp-serve serves over SSE, printed as JSON lines.
	var followWait func()
	if *follow {
		if octx == nil {
			octx = &obs.Context{}
		}
		followWait = followBus(octx, os.Stderr)
	}

	w, err := workloadByName(*workloadName)
	exitOn(err)

	dsaLimit := *maxDSAs
	if dsaLimit == 0 {
		dsaLimit = -1 // CLI 0 means "no DSAs"; the library's 0 means default
	}
	space := hilp.SpaceConfig{
		CPUCores:  mustInts(*cpus),
		GPUSMs:    mustInts(*gpus),
		MaxDSAs:   dsaLimit,
		DSAPEs:    mustInts(*pes),
		PowerW:    *powerW,
		Advantage: *advantage,
	}
	specs := hilp.DesignSpace(w, space)
	freqs := mustFloats(*dvfs)
	for i := range specs {
		specs[i].GPUFrequenciesMHz = freqs
	}
	fmt.Fprintf(os.Stderr, "hilp-dse: evaluating %d SoCs on %s\n", len(specs), w.Name)

	ctx := obs.WithRequestID(context.Background(), reqID)
	var injector *faults.Injector
	if *faultSpec != "" {
		fcfg, err := faults.ParseSpec(*faultSpec)
		exitOn(err)
		injector = faults.New(fcfg)
		ctx = faults.NewContext(ctx, injector)
		fmt.Fprintf(os.Stderr, "hilp-dse: CHAOS MODE: injecting faults (%s)\n", *faultSpec)
	}
	// SIGINT/SIGTERM cancel the sweep context: in-flight solves drain with
	// their best incumbents (anytime semantics), then the checkpoint journal
	// gets its final flush below.
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg := hilp.SolverConfig{Seed: *seed, Effort: *effort, Restarts: 1, Obs: octx}
	solveOpts := []hilp.Option{
		hilp.WithProfile(hilp.DSEProfile),
		hilp.WithSolver(cfg),
		hilp.WithWorkers(*workers),
		hilp.WithObs(octx),
		hilp.WithCache(*useCache),
		hilp.WithWarmStart(*warmStart),
		hilp.WithPruning(*prune),
	}
	if ocli.Verbose {
		solveOpts = append(solveOpts, hilp.WithProgress(liveProgress(os.Stderr)))
	}

	if *doResume && *ckptDir == "" {
		exitOn(fmt.Errorf("-resume requires -checkpoint"))
	}
	var jnl *journal.Journal
	if *ckptDir != "" {
		modelKey := dseModelKey(w, specs, cfg)
		if *doResume {
			resume, err := resumeCheckpoint(*ckptDir, modelKey, specs)
			exitOn(err)
			fmt.Fprintf(os.Stderr, "hilp-dse: resuming from %s: %d/%d points recovered, %d to solve\n",
				*ckptDir, len(resume), len(specs), len(specs)-len(resume))
			if len(resume) > 0 {
				solveOpts = append(solveOpts, hilp.WithResume(resume))
			}
		}
		jnl, err = openCheckpoint(*ckptDir, modelKey, len(specs), octx)
		exitOn(err)
		solveOpts = append(solveOpts, hilp.WithCheckpoint(checkpointHook(jnl)))
	}

	batch, err := hilp.SolveBatch(ctx, w, specs, solveOpts...)
	exitOn(err)
	points := batch.Points
	if st := batch.Stats; st.CacheHits+st.WarmStarted+st.Pruned+st.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "hilp-dse: engine: %d solved, %d cache hits, %d warm-started, %d pruned, %d resumed\n",
			st.Solved, st.CacheHits, st.WarmStarted, st.Pruned, st.Resumed)
	}

	interrupted := ctx.Err() != nil
	if jnl != nil {
		// A completed run closes its journal history; an interrupted one
		// leaves the job open so -resume picks it up. Either way Close flushes
		// every buffered point record to disk (the SIGTERM "final flush").
		if !interrupted {
			jnl.Append(wire.JournalRecord{
				Kind:  wire.JournalKindJobEnd,
				JobID: checkpointJobID,
				End:   &wire.JournalJobEnd{Status: "done"},
			})
		}
		exitOn(jnl.Close())
	}
	if interrupted {
		completed := 0
		for _, p := range points {
			if p.Err == nil {
				completed++
			}
		}
		msg := fmt.Sprintf("hilp-dse: interrupted: %d/%d points completed", completed, len(points))
		if best, ok := hilp.BestPoint(points); ok {
			msg += fmt.Sprintf("; best incumbent %s: %.1fx @ %.1f mm^2 (gap certificate %.1f%%)",
				best.Label, best.Speedup, best.AreaMM2, 100*best.Gap)
		}
		fmt.Fprintln(os.Stderr, msg)
		if jnl != nil {
			fmt.Fprintf(os.Stderr, "hilp-dse: checkpoint flushed; rerun with -checkpoint %s -resume to continue\n", *ckptDir)
		}
	}

	if injector != nil {
		failed, degraded := 0, 0
		for _, p := range points {
			switch {
			case p.Err != nil:
				failed++
			case p.Degraded:
				degraded++
			}
		}
		fmt.Fprintf(os.Stderr, "hilp-dse: chaos: %d faults fired on %d points; %d points failed, %d degraded to fallback\n",
			injector.FiredCount(), len(injector.FiredKeys()), failed, degraded)
	}

	var maPoints, gabPoints []hilp.Point
	if *withBase && !interrupted {
		bo := dse.BatchOptions{Workers: *workers}
		maPoints = dse.Run(ctx, specs, bo, dse.MAEvaluator(w)).Points
		gabPoints = dse.Run(ctx, specs, bo, dse.GablesEvaluator(w, hilp.DSEProfile, cfg)).Points
	}
	if followWait != nil {
		followWait()
	}
	exitOn(ocli.Close())

	if *reportPath != "" {
		exitOn(writeSweepReport(*reportPath, w, points, cfg))
	}

	printPoints := func(model string, pts []hilp.Point) {
		out := pts
		if *paretoOnly {
			out = hilp.ParetoFront(pts)
		}
		if *csv {
			exitOn(dse.WriteCSV(os.Stdout, model, out))
			return
		}
		fmt.Printf("\n%s (%d points%s):\n", model, len(out), map[bool]string{true: ", Pareto only", false: ""}[*paretoOnly])
		fmt.Printf("%-18s %10s %9s %6s %6s  %s\n", "SoC", "area mm^2", "speedup", "WLP", "gap", "mix")
		for _, p := range out {
			if p.Err != nil {
				fmt.Printf("%-18s   failed: %v\n", p.Label, p.Err)
				continue
			}
			if p.Pruned {
				fmt.Printf("%-18s %10.1f   pruned: speedup <= %.1fx (dominated by %s)\n",
					p.Label, p.AreaMM2, p.SpeedupBound, p.PrunedBy)
				continue
			}
			mark := ""
			if p.Degraded {
				mark = " (degraded: " + p.FallbackReason + ")"
			}
			fmt.Printf("%-18s %10.1f %9.1f %6.2f %5.1f%%  %s%s\n", p.Label, p.AreaMM2, p.Speedup, p.WLP, 100*p.Gap, p.Mix, mark)
		}
		if best, ok := hilp.BestPoint(pts); ok {
			fmt.Printf("best: %s (%.1fx @ %.1f mm^2)\n", best.Label, best.Speedup, best.AreaMM2)
		}
	}

	printPoints("HILP", points)
	if *withBase && !interrupted {
		printPoints("MultiAmdahl", maPoints)
		printPoints("Gables", gabPoints)
	}
}

// followBus attaches a live-event bus to octx and tails it to w from a
// goroutine. The returned function closes the bus, waits for the tail to
// drain, and reports any drop-oldest losses.
func followBus(octx *obs.Context, w *os.File) func() {
	octx.Bus = obs.NewBus(0)
	sub := octx.Bus.Subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		enc := json.NewEncoder(w)
		for ev := range sub.C {
			enc.Encode(ev)
		}
	}()
	return func() {
		octx.Bus.Close()
		<-done
		if n := sub.Dropped(); n > 0 {
			fmt.Fprintf(w, "hilp-dse: -follow: %d events dropped (terminal slower than the sweep)\n", n)
		}
		sub.Unsubscribe()
	}
}

// writeSweepReport renders the sweep's Pareto front to an HTML report. The
// sweep itself runs without a flight recorder (it is parallel, so recorded
// event interleavings would not be deterministic); instead the best point is
// re-evaluated once, single-threaded, with a recorder attached so the report
// also carries that point's schedule, utilization, and convergence traces.
func writeSweepReport(path string, w hilp.Workload, points []hilp.Point, cfg hilp.SolverConfig) error {
	title := fmt.Sprintf("hilp-dse sweep — %s", w.Name)
	var d *report.Data
	if best, ok := hilp.BestPoint(points); ok {
		rec := obs.NewRecorder()
		recCfg := cfg
		recCfg.Obs = &obs.Context{Recorder: rec}
		res, err := hilp.Solve(context.Background(), w, best.Spec, hilp.WithProfile(hilp.DSEProfile), hilp.WithSolver(recCfg))
		if err != nil {
			return err
		}
		d, err = report.FromResult(title, res, rec)
		if err != nil {
			return err
		}
		d.Subtitle = fmt.Sprintf("best point %s re-evaluated in detail; %d SoCs swept", best.Label, len(points))
	} else {
		d = report.New(title, fmt.Sprintf("%d SoCs swept; no feasible point found", len(points)))
	}
	d.AddSweep(points)
	jsonPath, err := report.Write(path, d)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hilp-dse: report written to %s (JSON twin %s)\n", path, jsonPath)
	return nil
}

// liveProgress returns a progress callback rendering a single self-updating
// status line: points evaluated, current best, and the extrapolated ETA.
func liveProgress(w *os.File) func(dse.Progress) {
	return func(p dse.Progress) {
		best := "best n/a"
		if p.HasBest {
			best = fmt.Sprintf("best %.1fx @ %.1f mm^2 gap %.1f%% (%s)",
				p.Best.Speedup, p.Best.AreaMM2, 100*p.Best.Gap, p.Best.Label)
			// The per-point correlation ID ties the best point to its log
			// lines and latency exemplar.
			if p.Best.RequestID != "" {
				best += " req " + p.Best.RequestID
			}
		}
		fmt.Fprintf(w, "\rhilp-dse: %d/%d (%d%%)  %s  eta %s   ",
			p.Done, p.Total, 100*p.Done/p.Total, best, p.ETA.Round(time.Second))
		if p.Done == p.Total {
			fmt.Fprintln(w)
		}
	}
}

func workloadByName(name string) (hilp.Workload, error) {
	switch strings.ToLower(name) {
	case "rodinia":
		return hilp.RodiniaWorkload(), nil
	case "default":
		return hilp.DefaultWorkload(), nil
	case "optimized":
		return hilp.OptimizedWorkload(), nil
	}
	return hilp.Workload{}, fmt.Errorf("unknown workload %q", name)
}

func mustInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		exitOn(err)
		out = append(out, v)
	}
	return out
}

func mustFloats(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		exitOn(err)
		out = append(out, v)
	}
	return out
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hilp-dse:", err)
		os.Exit(1)
	}
}
