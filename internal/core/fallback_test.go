package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"hilp/internal/faults"
	"hilp/internal/milp"
	"hilp/internal/obs"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

// fallbackProblem is a small instance every solver layer handles quickly.
func fallbackProblem(t *testing.T) *scheduler.Problem {
	t.Helper()
	inst, err := validModel().Build(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Problem
}

func chainCtx(cfg faults.Config) (context.Context, *faults.Injector) {
	in := faults.New(cfg)
	return faults.NewContext(context.Background(), in), in
}

func TestSolveProblemClean(t *testing.T) {
	res, err := SolveProblem(context.Background(), fallbackProblem(t), scheduler.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.FallbackReason != "" {
		t.Errorf("clean solve marked degraded: %+v", res)
	}
}

func TestSolveProblemRetryRecovers(t *testing.T) {
	// Times=1: the first attempt fails with an injected error, the retry's
	// injection budget is exhausted, so the retry succeeds cleanly — the
	// result must NOT be degraded.
	ctx, in := chainCtx(faults.Config{Seed: 1, Rate: 1, Times: 1,
		Kinds: []faults.Kind{faults.KindError}, Sites: []string{faults.SiteSolve}})
	octx := &obs.Context{Metrics: obs.NewRegistry()}
	res, err := SolveProblem(ctx, fallbackProblem(t), scheduler.Config{Seed: 1, Obs: octx})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Errorf("successful retry marked degraded: %+v", res)
	}
	if got := octx.Metrics.Counter(obs.MSolveRetries).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MSolveRetries, got)
	}
	if got := octx.Metrics.Counter(obs.MSolveFallbacks).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", obs.MSolveFallbacks, got)
	}
	if in.FiredCount() != 1 {
		t.Errorf("FiredCount = %d, want 1", in.FiredCount())
	}
}

func TestSolveProblemDegradesToFallback(t *testing.T) {
	kinds := map[string]struct {
		kind   faults.Kind
		reason string
	}{
		"error":   {faults.KindError, ReasonInjected},
		"panic":   {faults.KindPanic, ReasonPanic},
		"corrupt": {faults.KindCorrupt, ReasonBadOut},
	}
	for name, tc := range kinds {
		t.Run(name, func(t *testing.T) {
			// Times=2 exhausts both the primary attempt and the retry, forcing
			// the heuristic fallback.
			ctx, _ := chainCtx(faults.Config{Seed: 1, Rate: 1, Times: 2,
				Kinds: []faults.Kind{tc.kind}, Sites: []string{faults.SiteSolve}})
			octx := &obs.Context{Metrics: obs.NewRegistry()}
			p := fallbackProblem(t)
			res, err := SolveProblem(ctx, p, scheduler.Config{Seed: 1, Obs: octx})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Degraded || res.FallbackReason != tc.reason {
				t.Fatalf("degraded=%v reason=%q, want true/%q", res.Degraded, res.FallbackReason, tc.reason)
			}
			if res.Method != "heuristic-fallback" {
				t.Errorf("method %q", res.Method)
			}
			// The degraded result is still a feasible schedule with a valid bound.
			if verr := res.Schedule.Validate(p); verr != nil {
				t.Errorf("fallback schedule invalid: %v", verr)
			}
			if res.LowerBound < 0 || res.LowerBound > res.Schedule.Makespan {
				t.Errorf("fallback bound %d outside [0, %d]", res.LowerBound, res.Schedule.Makespan)
			}
			if got := octx.Metrics.Counter(obs.MSolveDegraded).Value(); got != 1 {
				t.Errorf("%s = %d, want 1", obs.MSolveDegraded, got)
			}
		})
	}
}

func TestSolveProblemMILPPrimary(t *testing.T) {
	// fig2Heur builds a fig2-family model at the horizon of its heuristic
	// makespan, which keeps the time-indexed encoding small.
	fig2Heur := func(m CustomModel) *scheduler.Problem {
		inst, err := m.Build(1, 100)
		if err != nil {
			t.Fatal(err)
		}
		heur, _ := scheduler.HeuristicSchedule(inst.Problem)
		if inst, err = m.Build(1, heur.Makespan); err != nil {
			t.Fatal(err)
		}
		return inst.Problem
	}
	for _, tc := range []struct {
		name string
		p    *scheduler.Problem
		gap  float64
	}{
		{"valid model", fallbackProblem(t), 0},
		// A gap tolerance above 0 lets branch and bound stop with the bound
		// below the makespan: the result is then not proven.
		{"fig2 gap 0.15", fig2Heur(fig2Family("fig2", [3]float64{8, 6, 5}, [3]float64{5, 3, 2})), 0.15},
		{"fig2b gap 0.30", fig2Heur(fig2Family("fig2b", [3]float64{6, 4, 3}, [3]float64{7, 2, 4})), 0.30},
		{"fig2c gap 0.10", fig2Heur(fig2Family("fig2c", [3]float64{7, 5, 4}, [3]float64{6, 3, 5})), 0.10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := SolveProblem(context.Background(), tc.p, scheduler.Config{Seed: 1, Improver: "milp", GapTarget: tc.gap})
			if err != nil {
				t.Fatal(err)
			}
			if res.Method != "milp" {
				t.Fatalf("method %q, want milp", res.Method)
			}
			if verr := res.Schedule.Validate(tc.p); verr != nil {
				t.Errorf("milp schedule invalid: %v", verr)
			}
			if res.Degraded {
				t.Errorf("clean milp solve marked degraded")
			}
			// One proof rule for every improver: proven means the lower
			// bound meets the makespan.
			if res.Proven != (res.LowerBound == res.Schedule.Makespan) {
				t.Errorf("proven=%v with makespan %d and lower bound %d", res.Proven, res.Schedule.Makespan, res.LowerBound)
			}
		})
	}
}

func TestSolveProblemValidationErrorIsFinal(t *testing.T) {
	// An invalid problem is the caller's fault: no retry, no fallback.
	bad := &scheduler.Problem{
		Tasks:        []scheduler.Task{{Name: "x", Options: []scheduler.Option{{Cluster: 5, Duration: 1}}}},
		NumClusters:  1,
		ClusterGroup: []int{0},
		Horizon:      10,
	}
	octx := &obs.Context{Metrics: obs.NewRegistry()}
	if _, err := SolveProblem(context.Background(), bad, scheduler.Config{Seed: 1, Obs: octx}); err == nil {
		t.Fatal("invalid problem accepted")
	}
	if got := octx.Metrics.Counter(obs.MSolveRetries).Value(); got != 0 {
		t.Errorf("validation error was retried (%d retries)", got)
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{scheduler.NewPanicError("t", "boom"), true},
		{milp.ErrNumerics, true},
		{milp.ErrDegenerate, true},
		{faults.ErrInjected, true},
		{faults.ErrTimeout, true},
		{ErrBadResult, true},
		{scheduler.ErrMILPIncomplete, true},
		{scheduler.ErrInfeasible, false},
		{context.Canceled, false},
		{BadField("x", CodeNaN, "is NaN"), false},
		{errors.New("mystery"), false},
	}
	for _, tc := range cases {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestSolveAdaptiveDegradedSticky(t *testing.T) {
	// A fault on the solve site inside the adaptive loop must surface on the
	// final Result even though later refinements may succeed.
	ctx, _ := chainCtx(faults.Config{Seed: 3, Rate: 1, Times: 2,
		Kinds: []faults.Kind{faults.KindError}, Sites: []string{faults.SiteSolve}})
	w := smallWorkload(t)
	res, err := Solve(ctx, w, fastSpec(2, 16), Profile{InitialStepSec: 10, Horizon: 200}, scheduler.Config{Seed: 1, Effort: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.FallbackReason != ReasonInjected {
		t.Errorf("degraded=%v reason=%q, want sticky true/%q", res.Degraded, res.FallbackReason, ReasonInjected)
	}
	if res.Speedup <= 0 {
		t.Errorf("degraded result speedup %g, want > 0", res.Speedup)
	}
}

// fig2Family is a model of the paper's Fig. 2 family: per application a CPU
// setup, a compute phase on the CPU, GPU or DSA, and a CPU teardown, under a
// 3 W power cap. durs holds each application's (cpu, gpu, dsa) compute
// seconds.
func fig2Family(name string, durs ...[3]float64) CustomModel {
	m := CustomModel{
		Name:         name,
		Clusters:     []CustomCluster{{Name: "cpu0"}, {Name: "gpu0"}, {Name: "dsa0"}},
		PowerBudgetW: 3,
	}
	for a, d := range durs {
		task := func(phase int) string { return fmt.Sprintf("a%dp%d", a, phase) }
		m.Tasks = append(m.Tasks,
			CustomTask{Name: task(0), App: a, Phase: 0, Options: []CustomOption{{Cluster: "cpu0", Sec: 1, PowerW: 1}}},
			CustomTask{Name: task(1), App: a, Phase: 1, Deps: []CustomDep{{Task: task(0)}}, Options: []CustomOption{
				{Cluster: "cpu0", Sec: d[0], PowerW: 1}, {Cluster: "gpu0", Sec: d[1], PowerW: 3}, {Cluster: "dsa0", Sec: d[2], PowerW: 2}}},
			CustomTask{Name: task(2), App: a, Phase: 2, Deps: []CustomDep{{Task: task(1)}}, Options: []CustomOption{{Cluster: "cpu0", Sec: 1, PowerW: 1}}},
		)
	}
	return m
}

// pinnedGridSHA256 pins every solve of TestSolveGridPinned. Change it only
// for a deliberate change of solver output, and say which output moved.
const pinnedGridSHA256 = "a4fa19c4d4e291fb51b956b91188983363cfdc5a6d62797ae73685bf951233f6"

// TestSolveGridPinned solves a fixed grid through the fault-tolerant chain
// and compares a hash of the results and their "solve" flight-recorder
// traces against pinnedGridSHA256. The grid crosses fig2-family models and a
// 2-app Rodinia workload at two resolutions with every improver (the MILP on
// the 2-app fig2 models only), cold, warm-started and early-exit
// (WithRefineBelow) solves, a gap target of 0.10 and one of 1e-9, and a first
// attempt that is corrupted so the chain retries. MILP rows leave the
// recorder out: MILP solves gained their "solve" trace after this test was
// pinned.
func TestSolveGridPinned(t *testing.T) {
	type instance struct {
		name   string
		p      *scheduler.Problem
		exacts bool // small enough for the MILP
	}
	var insts []instance
	for _, m := range []CustomModel{
		fig2Family("fig2", [3]float64{8, 6, 5}, [3]float64{5, 3, 2}),
		fig2Family("fig2b", [3]float64{6, 4, 3}, [3]float64{7, 2, 4}),
	} {
		// The horizon is the heuristic makespan, the tightest one known to
		// hold a schedule: it keeps the MILP's time-indexed encoding small.
		inst, err := m.Build(1, 100)
		if err != nil {
			t.Fatal(err)
		}
		heur, _ := scheduler.HeuristicSchedule(inst.Problem)
		if inst, err = m.Build(1, heur.Makespan); err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{m.Name, inst.Problem, true})
	}
	// Four applications: too many for the MILP, and the exact search runs
	// out of nodes, so the gap target of 1e-9 is missed.
	fig2x4, err := fig2Family("fig2x4", [3]float64{7, 5, 4}, [3]float64{6, 3, 5}, [3]float64{5, 4, 2}, [3]float64{4, 2, 3}).Build(1, 60)
	if err != nil {
		t.Fatal(err)
	}
	insts = append(insts, instance{"fig2x4", fig2x4.Problem, false})
	w := rodinia.Workload{Name: "rodinia2", Apps: rodinia.RodiniaWorkload().Apps[:2]}
	for _, spec := range []struct {
		name string
		step float64
		sms  int
	}{{"rodinia2", 10, 16}, {"rodinia2-fine", 2, 4}} {
		inst, err := BuildInstance(w, fastSpec(1, spec.sms), spec.step, 1000)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{spec.name, inst.Problem, false})
	}

	h := sha256.New()
	for _, in := range insts {
		heur, ok := scheduler.HeuristicSchedule(in.p)
		if !ok {
			t.Fatalf("%s: no heuristic schedule", in.name)
		}
		for _, imp := range []string{"anneal", "tabu", "milp"} {
			if imp == "milp" && !in.exacts {
				continue
			}
			for _, mode := range []string{"cold", "warm", "refine"} {
				for _, gap := range []float64{0.10, 1e-9} {
					for _, retry := range []bool{false, true} {
						var tick int64
						rec := obs.NewRecorderWithClock(func() int64 { tick++; return tick })
						cfg := scheduler.Config{Seed: 3, Effort: 0.05, GapTarget: gap, ExactNodeLimit: 20000, Improver: imp, Obs: &obs.Context{Recorder: rec}}
						switch mode {
						case "warm":
							cfg.Warm = scheduler.WarmStartOf(in.p, heur)
						case "refine":
							cfg = scheduler.WithRefineBelow(cfg, heur.Makespan+1)
						}
						ctx := context.Background()
						if retry {
							ctx, _ = chainCtx(faults.Config{Seed: 1, Rate: 1, Kinds: []faults.Kind{faults.KindCorrupt}, Sites: []string{faults.SiteSolve}})
						}
						res, err := SolveProblem(ctx, in.p, cfg)
						fmt.Fprintf(h, "%s %s %s %g %v: err=%v method=%s makespan=%d lb=%d proven=%v cancelled=%v nodes=%d stopped=%v degraded=%v start=%v option=%v\n",
							in.name, imp, mode, gap, retry, err, res.Method, res.Schedule.Makespan, res.LowerBound, res.Proven,
							res.Cancelled, res.Nodes, scheduler.Stopped(res), res.Degraded, res.Schedule.Start, res.Schedule.Option)
						if imp != "milp" {
							hashSolveTraces(h, rec)
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedGridSHA256 {
		t.Errorf("solve grid hash %s, want %s", got, pinnedGridSHA256)
	}
}

// hashSolveTraces writes the events and certificate of every "solve" trace
// in rec to w.
func hashSolveTraces(w io.Writer, rec *obs.Recorder) {
	for _, r := range rec.Snapshot() {
		if r.Solver != "solve" {
			continue
		}
		fmt.Fprintf(w, "solve %d-%d\n", r.StartNs, r.EndNs)
		for _, e := range r.Events {
			fmt.Fprintf(w, "  %s %d %d %g\n", e.Kind, e.TimeNs, e.Iter, e.Value)
		}
		if c := r.Certificate; c != nil {
			fmt.Fprintf(w, "  certificate %g %g %v\n", c.Incumbent, c.Bound, c.Proven)
		}
	}
}

// TestMILPOverCapRefusedBeforeBuild encodes a Sec. VI design point, the
// Default workload on (c4,g16) at the DSE profile's first resolution, whose
// time-indexed tableau is far over the milp size cap. The encoder counts the
// binaries and refuses it before building any row: the refusal allocates
// less than 1 MiB, where building the encoding took hundreds.
func TestMILPOverCapRefusedBeforeBuild(t *testing.T) {
	in, err := BuildInstance(rodinia.DefaultWorkload(), soc.Spec{CPUCores: 4, GPUSMs: 16},
		DSEProfile.InitialStepSec, DSEProfile.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = scheduler.EncodeMILP(in.Problem)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, milp.ErrTooLarge) {
		t.Fatalf("EncodeMILP: %v, want milp.ErrTooLarge", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusal allocated %d bytes, want < 1 MiB", got)
	}
}
