package report

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hilp/internal/core"
	"hilp/internal/dse"
	"hilp/internal/obs"
	"hilp/internal/scheduler"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testModel is the paper's Figure 2 running example: two applications on a
// CPU, a GPU, and a DSA under a 3 W power cap. Small enough to solve to
// proven optimality deterministically.
func testModel() core.CustomModel {
	cpuOpt := func(sec float64) core.CustomOption {
		return core.CustomOption{Cluster: "cpu0", Sec: sec, PowerW: 1}
	}
	gpuOpt := func(sec float64) core.CustomOption {
		return core.CustomOption{Cluster: "gpu0", Sec: sec, PowerW: 3}
	}
	dsaOpt := func(sec float64) core.CustomOption {
		return core.CustomOption{Cluster: "dsa0", Sec: sec, PowerW: 2}
	}
	return core.CustomModel{
		Name:         "fig2",
		Clusters:     []core.CustomCluster{{Name: "cpu0"}, {Name: "gpu0"}, {Name: "dsa0"}},
		PowerBudgetW: 3,
		Tasks: []core.CustomTask{
			{Name: "m0", App: 0, Phase: 0, Options: []core.CustomOption{cpuOpt(1)}},
			{Name: "m1", App: 0, Phase: 1, Deps: []core.CustomDep{{Task: "m0"}},
				Options: []core.CustomOption{cpuOpt(8), gpuOpt(6), dsaOpt(5)}},
			{Name: "m2", App: 0, Phase: 2, Deps: []core.CustomDep{{Task: "m1"}},
				Options: []core.CustomOption{cpuOpt(1)}},
			{Name: "n0", App: 1, Phase: 0, Options: []core.CustomOption{cpuOpt(1)}},
			{Name: "n1", App: 1, Phase: 1, Deps: []core.CustomDep{{Task: "n0"}},
				Options: []core.CustomOption{cpuOpt(5), gpuOpt(3), dsaOpt(2)}},
			{Name: "n2", App: 1, Phase: 2, Deps: []core.CustomDep{{Task: "n1"}},
				Options: []core.CustomOption{cpuOpt(1)}},
		},
	}
}

// countingClock is the obs injectable-clock pattern: a deterministic
// monotonic clock, one tick per call.
func countingClock() func() int64 {
	var t int64
	return func() int64 {
		t++
		return t
	}
}

// buildTestData runs one full deterministic solve (fixed seed, injected
// clock) and assembles a report with every section populated.
func buildTestData(t *testing.T) *Data {
	t.Helper()
	inst, err := testModel().Build(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorderWithClock(countingClock())
	res, err := scheduler.Solve(context.Background(), inst.Problem, scheduler.Config{Seed: 1, Obs: &obs.Context{Recorder: rec}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromSchedule("fig2 run report", inst, res, rec)
	if err != nil {
		t.Fatal(err)
	}
	d.AddSweep([]dse.Point{
		{Label: "1c", AreaMM2: 10, Speedup: 1.0, WLP: 1.0, Mix: dse.NoAccel},
		{Label: "1c16sm", AreaMM2: 30, Speedup: 2.1, WLP: 1.5, Mix: dse.GPUDominated},
		{Label: "1c+dsa", AreaMM2: 24, Speedup: 1.8, WLP: 1.4, Mix: dse.DSADominated},
		{Label: "big", AreaMM2: 60, Speedup: 2.0, WLP: 1.3, Mix: dse.MixedAccel},
		{Label: "broken", AreaMM2: 5, Err: errors.New("infeasible")},
	})
	return d
}

func TestReportDeterministic(t *testing.T) {
	// Two fully independent solves with the same seed must render
	// byte-identical HTML and JSON: the report may not depend on wall time.
	d1, d2 := buildTestData(t), buildTestData(t)
	h1, err := d1.HTML()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := d2.HTML()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h1, h2) {
		t.Error("HTML differs between identical runs")
	}
	j1, err := d1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := d2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("JSON differs between identical runs")
	}
}

func TestReportGolden(t *testing.T) {
	d := buildTestData(t)
	html, err := d.HTML()
	if err != nil {
		t.Fatal(err)
	}
	js, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		path string
		got  []byte
	}{
		{filepath.Join("testdata", "report.html"), html},
		{filepath.Join("testdata", "report.json"), js},
	} {
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(g.path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatalf("%v (run go test ./internal/report -update to regenerate)", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs from golden file (run go test ./internal/report -update after intended changes)", g.path)
		}
	}
}

func TestReportSections(t *testing.T) {
	d := buildTestData(t)
	html, err := d.HTML()
	if err != nil {
		t.Fatal(err)
	}
	s := string(html)
	for _, want := range []string{
		"<!doctype html>",
		"Schedule timeline",
		"Resource utilization",
		"Solver convergence",
		"Design-space sweep",
		"<svg",
		"prefers-color-scheme: dark",
		"Pareto front",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	// Determinism guard: no wall-clock fields may leak into the output.
	for _, banned := range []string{"TimeNs", "timeNs", "StartNs", "startNs"} {
		if strings.Contains(s, banned) {
			t.Errorf("HTML leaks timestamp field %q", banned)
		}
	}
}

func TestJSONTwinStructure(t *testing.T) {
	d := buildTestData(t)
	js, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(js, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"title", "summary", "timeline", "utilization", "solves", "sweep"} {
		if _, ok := m[key]; !ok {
			t.Errorf("JSON twin missing %q", key)
		}
	}
	if strings.Contains(string(js), "timeNs") {
		t.Error("JSON twin leaks timestamps")
	}
}

func TestWriteEmitsBothFiles(t *testing.T) {
	d := buildTestData(t)
	dir := t.TempDir()
	htmlPath := filepath.Join(dir, "out.html")
	jsonPath, err := Write(htmlPath, d)
	if err != nil {
		t.Fatal(err)
	}
	if jsonPath != filepath.Join(dir, "out.json") {
		t.Errorf("jsonPath = %s", jsonPath)
	}
	for _, p := range []string{htmlPath, jsonPath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v (size %d)", p, err, fi.Size())
		}
	}
}

func TestJSONPath(t *testing.T) {
	cases := map[string]string{
		"report.html":     "report.json",
		"out/report.html": "out/report.json",
		"report":          "report.json",
		"report.htm":      "report.htm.json",
	}
	for in, want := range cases {
		if got := JSONPath(in); got != want {
			t.Errorf("JSONPath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAddSweepFrontAndHypervolume(t *testing.T) {
	d := New("sweep", "")
	d.AddSweep([]dse.Point{
		{Label: "a", AreaMM2: 10, Speedup: 1.0, Mix: dse.NoAccel},
		{Label: "b", AreaMM2: 20, Speedup: 2.0, Mix: dse.GPUDominated},
		{Label: "c", AreaMM2: 30, Speedup: 1.5, Mix: dse.MixedAccel}, // dominated by b
	})
	sw := d.Sweep
	if sw == nil || len(sw.Points) != 3 {
		t.Fatalf("sweep = %+v", sw)
	}
	wantFront := map[string]bool{"a": true, "b": true, "c": false}
	for _, p := range sw.Points {
		if p.OnFront != wantFront[p.Label] {
			t.Errorf("%s onFront = %v", p.Label, p.OnFront)
		}
	}
	if sw.RefArea != 30 || sw.Hypervolume <= 0 {
		t.Errorf("refArea = %g, hypervolume = %g", sw.RefArea, sw.Hypervolume)
	}
}

func TestFromResultEndToEnd(t *testing.T) {
	rec := obs.NewRecorderWithClock(countingClock())
	octx := &obs.Context{Recorder: rec}
	inst, err := testModel().Build(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scheduler.Solve(context.Background(), inst.Problem, scheduler.Config{Seed: 1, Obs: octx})
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromSchedule("t", inst, res, rec)
	if err != nil {
		t.Fatal(err)
	}
	if d.Timeline == nil || d.Utilization == nil || len(d.Solves) == 0 {
		t.Fatalf("incomplete report: %+v", d)
	}
	// The report's solve certificate must agree with the solver.
	var cert *Certificate
	for _, s := range d.Solves {
		if s.Solver == "solve" {
			cert = s.Certificate
		}
	}
	if cert == nil {
		t.Fatal("no solve certificate in the report")
	}
	if int(cert.Incumbent) != res.Schedule.Makespan || int(cert.Bound) != res.LowerBound || cert.Proven != res.Proven {
		t.Errorf("certificate %+v != result makespan %d, bound %d, proven %v", *cert, res.Schedule.Makespan, res.LowerBound, res.Proven)
	}
}
