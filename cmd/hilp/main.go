// Command hilp evaluates a workload on an SoC with HILP and prints the
// resulting schedule, speedup, WLP, and optimality gap.
//
// Two input modes:
//
//	hilp -workload Default -cpus 4 -gpu 16 -dsa LUD:16 -dsa HS:16
//	hilp -model model.json -step 1 -horizon 100
//
// The first mode evaluates one of the paper's Rodinia-derived workloads on
// an SoC from the paper's template. The second mode solves an arbitrary
// custom model (clusters, tasks, dependency DAG) from JSON; see
// examples/streaming for the equivalent programmatic API.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"hilp"
	"hilp/internal/obs"
	"hilp/internal/report"
	"hilp/internal/wire"
)

func main() {
	var (
		workloadName = flag.String("workload", "Default", "built-in workload: Rodinia, Default, or Optimized")
		cpus         = flag.Int("cpus", 4, "number of CPU cores")
		gpuSMs       = flag.Int("gpu", 16, "GPU SM count (0 = no GPU)")
		powerW       = flag.Float64("power", 600, "power budget in watts")
		bwGBs        = flag.Float64("bandwidth", 800, "memory bandwidth budget in GB/s")
		advantage    = flag.Float64("dsa-advantage", 4, "DSA efficiency advantage over the GPU")
		modelPath    = flag.String("model", "", "path to a custom-model JSON file (overrides workload mode)")
		stepSec      = flag.Float64("step", 1, "custom mode: time-step resolution in seconds")
		horizon      = flag.Int("horizon", 200, "custom mode: scheduling horizon in steps")
		seed         = flag.Int64("seed", 1, "solver random seed")
		effort       = flag.Float64("effort", 1, "solver effort multiplier")
		showGantt    = flag.Bool("gantt", true, "print the schedule as an ASCII Gantt chart")
		byApp        = flag.Bool("by-app", false, "also print the per-application Gantt view")
		showWLP      = flag.Bool("wlp", false, "print the per-step WLP histogram")
		showTasks    = flag.Bool("tasks", false, "print per-task placements")
		exportPath   = flag.String("export", "", "write the schedule as JSON to this file")
		jsonOut      = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		reportPath   = flag.String("report", "", "write a self-contained HTML run report (plus a .json twin) to this path")
	)
	var dsas dsaFlags
	flag.Var(&dsas, "dsa", "DSA as TARGET:PEs (repeatable), e.g. -dsa LUD:16")
	var ocli obs.CLI
	ocli.Register(nil)
	flag.Parse()

	// Every run gets a correlation ID, exactly like a served request: log
	// lines, metric exemplars, and the OTLP root span (when -otlp-endpoint is
	// set) all carry it, so a CLI run and a server request are diagnosed the
	// same way.
	reqID := obs.NewRequestID()
	ocli.RequestID = reqID
	ctx := obs.WithRequestID(context.Background(), reqID)

	octx := ocli.Context()
	if ocli.Verbose && ocli.LogFormat == "" {
		// A single evaluation is cheap to narrate in full: include the
		// per-refinement solver lines (debug), not just top-level progress.
		octx.Logger = obs.NewLogger(os.Stderr, "text", slog.LevelDebug)
	}
	var rec *obs.Recorder
	if *reportPath != "" {
		// The run report needs the flight recorder attached to the solve.
		rec = obs.NewRecorder()
		if octx == nil {
			octx = &obs.Context{}
		}
		octx.Recorder = rec
	}
	cfg := hilp.SolverConfig{Seed: *seed, Effort: *effort, Obs: octx}

	if *modelPath != "" {
		runCustom(ctx, *modelPath, *stepSec, *horizon, cfg, *showGantt, *showTasks, *jsonOut, *reportPath, rec)
		exitOn(ocli.Close())
		return
	}

	w, err := workloadByName(*workloadName)
	exitOn(err)
	spec := hilp.SoC{
		CPUCores:         *cpus,
		GPUSMs:           *gpuSMs,
		DSAs:             dsas.list,
		DSAAdvantage:     *advantage,
		PowerBudgetWatts: *powerW,
		MemBandwidthGBs:  *bwGBs,
	}
	res, err := hilp.Solve(ctx, w, spec, hilp.WithProfile(hilp.DSEProfile), hilp.WithSolver(cfg))
	exitOn(err)
	exitOn(ocli.Close())

	if *reportPath != "" {
		d, err := report.FromResult("HILP run report", res, rec)
		exitOn(err)
		jsonPath, err := report.Write(*reportPath, d)
		exitOn(err)
		fmt.Fprintf(os.Stderr, "hilp: report written to %s (JSON twin %s)\n", *reportPath, jsonPath)
	}

	if *jsonOut {
		out := map[string]any{
			"soc":         spec.Label(),
			"areaMM2":     spec.AreaMM2(),
			"makespanSec": res.MakespanSec,
			"speedup":     res.Speedup,
			"wlp":         res.WLP,
			"gap":         res.Gap,
			"stepSec":     res.StepSec,
			"method":      res.Sched.Method,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		exitOn(enc.Encode(out))
		return
	}

	fmt.Printf("SoC %s  (area %.1f mm^2)\n", spec.Label(), spec.AreaMM2())
	fmt.Printf("workload %s: makespan %.4g s, speedup %.1fx, avg WLP %.2f, gap %.1f%% (%s)\n",
		w.Name, res.MakespanSec, res.Speedup, res.WLP, 100*res.Gap, res.Sched.Method)
	if *showGantt {
		fmt.Println()
		fmt.Print(res.Instance.Gantt(res.Sched.Schedule, 100))
	}
	if *byApp {
		fmt.Println()
		fmt.Print(res.Instance.GanttByApp(res.Sched.Schedule, 100))
	}
	if *showWLP {
		fmt.Println()
		fmt.Print(res.Instance.WLPHistogram(res.Sched.Schedule))
	}
	if *showTasks {
		fmt.Println()
		fmt.Print(res.Instance.DescribeSchedule(res.Sched.Schedule))
	}
	if *exportPath != "" {
		data, err := res.Instance.ExportSchedule(res.Sched.Schedule)
		exitOn(err)
		exitOn(os.WriteFile(*exportPath, data, 0o644))
		fmt.Printf("\nschedule exported to %s\n", *exportPath)
	}
}

func runCustom(ctx context.Context, path string, stepSec float64, horizon int, cfg hilp.SolverConfig, gantt, tasks, jsonOut bool, reportPath string, rec *obs.Recorder) {
	data, err := os.ReadFile(path)
	exitOn(err)
	m, err := wire.DecodeModel(data)
	exitOn(err)
	inst, res, err := hilp.SolveModelContext(ctx, m, stepSec, horizon, cfg)
	exitOn(err)

	if reportPath != "" {
		d, err := report.FromSchedule(fmt.Sprintf("model %s — run report", m.Name), inst, res, rec)
		exitOn(err)
		jsonPath, err := report.Write(reportPath, d)
		exitOn(err)
		fmt.Fprintf(os.Stderr, "hilp: report written to %s (JSON twin %s)\n", reportPath, jsonPath)
	}

	if jsonOut {
		out := map[string]any{
			"model":       m.Name,
			"makespanSec": float64(res.Schedule.Makespan) * stepSec,
			"wlp":         res.Schedule.WLP(inst.Problem),
			"gap":         res.Gap(),
			"method":      res.Method,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		exitOn(enc.Encode(out))
		return
	}
	fmt.Printf("model %s: makespan %.4g s, avg WLP %.2f, gap %.1f%% (%s)\n",
		m.Name, float64(res.Schedule.Makespan)*stepSec, res.Schedule.WLP(inst.Problem), 100*res.Gap(), res.Method)
	if gantt {
		fmt.Println()
		fmt.Print(inst.Gantt(res.Schedule, 100))
	}
	if tasks {
		fmt.Println()
		fmt.Print(inst.DescribeSchedule(res.Schedule))
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
	return hilp.Workload{}, fmt.Errorf("unknown workload %q (want Rodinia, Default, or Optimized)", name)
}

// dsaFlags parses repeated -dsa TARGET:PEs flags.
type dsaFlags struct {
	list []hilp.DSA
}

func (d *dsaFlags) String() string {
	parts := make([]string, len(d.list))
	for i, dsa := range d.list {
		parts[i] = fmt.Sprintf("%s:%d", dsa.Target, dsa.PEs)
	}
	return strings.Join(parts, ",")
}

func (d *dsaFlags) Set(v string) error {
	target, peStr, ok := strings.Cut(v, ":")
	if !ok || target == "" {
		return fmt.Errorf("want TARGET:PEs, got %q", v)
	}
	pes, err := strconv.Atoi(peStr)
	if err != nil || pes < 1 {
		return fmt.Errorf("bad PE count in %q", v)
	}
	d.list = append(d.list, hilp.DSA{PEs: pes, Target: target})
	return nil
}

func exitOn(err error) {
	if err == nil {
		return
	}
	// Model-validation failures list every bad field with its path, so a
	// hand-written model JSON can be fixed in one pass instead of one error
	// at a time.
	var ve *hilp.ValidationError
	if errors.As(err, &ve) {
		fmt.Fprintln(os.Stderr, "hilp: invalid model:")
		for _, f := range ve.Fields {
			fmt.Fprintf(os.Stderr, "  %s: %s [%s]\n", f.Path, f.Msg, f.Code)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "hilp:", err)
	os.Exit(1)
}
