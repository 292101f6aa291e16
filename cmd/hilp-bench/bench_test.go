package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hilp/internal/obs"
)

// benchmarkFile mirrors the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricTables keeps the program's metric tables, BENCHMARK.json and the
// per-layer ledger's cross-references in step.
func TestMetricTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	names := map[string]bool{}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bf.Workloads[i].Name, w.name)
		}
		names[w.name] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	e2e := map[string]bool{}
	for i, m := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s %s %s, program %s %s %s",
				i, got.Name, got.Unit, got.Better, m.name, m.unit, m.better)
		}
		if !(got.Bound > 0 && got.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, got.Bound)
		}
		e2e[m.name] = true
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s %s %s, program %s %s %s",
				i, got.Name, got.Unit, got.Better, m.name, m.unit, m.better)
		}
		if !e2e[m.moves] || !names[m.on] {
			t.Errorf("%s should move %q on %q: not an end-to-end metric and workload", m.name, m.moves, m.on)
		}
	}
}

// smokeRun is one parsed -smoke run.
type smokeRun struct {
	lines   map[string][2]string // metric -> value, unit as printed
	summary summary
}

func runSmoke(t *testing.T, workload, trace string) smokeRun {
	t.Helper()
	var out, errs bytes.Buffer
	args := []string{"-workload", workload, "-smoke", "-seed", "7", "-trace", trace, "-workdir", t.TempDir()}
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("%s -trace %s: exit %d\n%s%s", workload, trace, code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	r := smokeRun{lines: map[string][2]string{}}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.summary); err != nil {
		t.Fatalf("%s: last line is not the JSON summary: %v", workload, err)
	}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) != 5 || f[0] != workload || !strings.HasPrefix(f[4], "n=") {
			t.Fatalf("%s: malformed metric line %q", workload, line)
		}
		r.lines[f[1]] = [2]string{f[2], f[3]}
	}
	return r
}

// checkPrinted compares a run's printed metrics with the table it should
// report and with its JSON summary.
func checkPrinted(t *testing.T, workload string, r smokeRun, want []metric) {
	t.Helper()
	if !r.summary.Correct || r.summary.Failed != 0 || r.summary.Attempted < 1 {
		t.Errorf("%s: summary %+v", workload, r.summary)
	}
	if len(r.lines) != len(want) || len(r.summary.Metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, JSON %d, want %d", workload, len(r.lines), len(r.summary.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.lines[m.name]
		if !ok || got[1] != m.unit || !metricName.MatchString(m.name) {
			t.Errorf("%s: metric %s printed as %v, want unit %s", workload, m.name, got, m.unit)
			continue
		}
		v, err := strconv.ParseFloat(got[0], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s = %q is not finite", workload, m.name, got[0])
		}
		if js := r.summary.Metrics[m.name]; js.Value != v || js.Unit != m.unit {
			t.Errorf("%s: %s printed %v %s, JSON %v %s", workload, m.name, v, m.unit, js.Value, js.Unit)
		}
	}
}

// TestSmoke runs every workload at -smoke size twice, untraced and traced,
// and checks the output format, correctness, that everything the seed fixes
// — the quality metrics and the cache hits — repeats exactly, and that the
// traced run attributes all but 5% of op time to layers.
func TestSmoke(t *testing.T) {
	var layers []metric
	for _, m := range perLayer {
		layers = append(layers, m.metric)
	}
	repeatable := map[string]bool{"certified_frac": true, "ub_over_lb_mean": true,
		"dse.cache_hit_frac": true, "server.cache_hit_frac": true, "milp.nodes": true, "core.refinements": true}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []string{"0", "1"} {
				want := endToEnd
				if trace == "1" {
					want = layers
				}
				first, second := runSmoke(t, w.name, trace), runSmoke(t, w.name, trace)
				checkPrinted(t, w.name, first, want)
				checkPrinted(t, w.name, second, want)
				for name := range repeatable {
					a, b := first.lines[name], second.lines[name]
					if a != b {
						t.Errorf("%s: %s differs between runs of one seed: %v vs %v", w.name, name, a, b)
					}
				}
				if u, ok := first.summary.Metrics["trace.unattributed_frac"]; ok && math.Abs(u.Value) > 0.05 {
					t.Errorf("%s: trace.unattributed_frac = %v, want within 0.05", w.name, u.Value)
				}
			}
		})
	}
}

// TestAttributeSpans pins the span arithmetic on a hand-built trace: self
// times subtract children on the same track only, program span names map to
// their layers, and the scheduler and MILP counts come from the span args.
func TestAttributeSpans(t *testing.T) {
	var now int64
	tr := obs.NewTracerWithClock(func() int64 { return now })
	c := &obs.Context{Tracer: tr}
	step := func(ns int64) { now += ns }

	op := c.StartSpan(opSpan)
	oc := c.WithSpan(op)
	step(1)
	solve := oc.StartSpan("solve")
	sc := oc.WithSpan(solve)
	bounds := sc.StartSpan("bounds").ArgInt("lower_bound", 10)
	step(2)
	bounds.End()
	anneal := sc.StartSpan("anneal").ArgInt("iterations", 100).ArgInt("restarts", 2)
	ac := sc.WithSpan(anneal)
	for _, name := range []string{"anneal-restart-0", "anneal-restart-1"} {
		r := ac.StartSpan(name)
		step(5)
		r.End()
	}
	anneal.End()
	dlb := sc.StartSpan("destructive-lb").ArgInt("lower_bound", 12)
	step(3)
	dlb.End()
	bb := sc.StartSpan("exact-bb").ArgInt("nodes", 7).ArgInt("exhausted", 1)
	step(4)
	bb.End()
	step(1)
	solve.End()
	within(oc, "journal.append", func() { step(2) })
	// A server-side solve on a track of its own counts as a root.
	other := c.StartSpan("evaluate")
	step(3)
	other.End()
	op.End()

	st := attributeSpans(tr.Snapshot())
	want := map[string]float64{opSpan: 4, "scheduler.solve": 1, "scheduler.bounds": 2, "scheduler.anneal": 10,
		"scheduler.destructive_lb": 3, "scheduler.exact": 4, "journal.append": 2, "core.evaluate": 3}
	for layer, ns := range want {
		if got := st.self[layer] * 1e9; math.Abs(got-ns) > 1e-6 {
			t.Errorf("self[%s] = %v ns, want %v", layer, got, ns)
		}
	}
	if st.ops*1e9 != 26 || st.roots*1e9 != 3 {
		t.Errorf("ops %v ns, roots %v ns; want 26 and 3", st.ops*1e9, st.roots*1e9)
	}
	if st.annealMoves != 200 || st.dlbRuns != 1 || st.dlbRaised != 1 || st.exactRuns != 1 ||
		st.exactProved != 1 || st.exactNodes != 7 {
		t.Errorf("counts %+v", st)
	}
}
