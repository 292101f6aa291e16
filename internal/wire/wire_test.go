package wire

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"hilp/internal/core"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

func TestWorkloadRoundTrip(t *testing.T) {
	orig := rodinia.Workload{Name: "mini", Apps: rodinia.DefaultWorkload().Apps[:4]}
	w := FromWorkload(orig)

	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back Workload
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.ToWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("workload round trip mismatch:\n got %+v\nwant %+v", got, orig)
	}
}

func TestWorkloadBuiltins(t *testing.T) {
	cases := map[string]rodinia.Workload{
		"":          rodinia.DefaultWorkload(),
		"default":   rodinia.DefaultWorkload(),
		"Rodinia":   rodinia.RodiniaWorkload(),
		"optimized": rodinia.OptimizedWorkload(),
	}
	for name, want := range cases {
		got, err := Workload{Name: name}.ToWorkload()
		if err != nil {
			t.Errorf("builtin %q: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("builtin %q resolved to %s", name, got.Name)
		}
	}
	if _, err := (Workload{Name: "nope"}).ToWorkload(); err == nil {
		t.Error("unknown built-in accepted")
	}
	if _, err := (Workload{Apps: []App{{Bench: "XYZ"}}}).ToWorkload(); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSoCRoundTrip(t *testing.T) {
	specs := []soc.Spec{
		{CPUCores: 4, GPUSMs: 16, DSAs: []soc.DSA{{PEs: 16, Target: "LUD"}}},
		{CPUCores: 1},
		{CPUCores: 2, GPUSMs: 64, GPUFrequenciesMHz: []float64{765, 1530},
			DSAAdvantage: 8, MemBandwidthGBs: 400, PowerBudgetWatts: 300},
		// Explicitly unconstrained budgets survive the trip as +Inf.
		{CPUCores: 2, MemBandwidthGBs: math.Inf(1), PowerBudgetWatts: math.Inf(1)},
	}
	for _, orig := range specs {
		data, err := json.Marshal(FromSpec(orig))
		if err != nil {
			t.Fatalf("%s: %v", orig.Label(), err)
		}
		var back SoC
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", orig.Label(), err)
		}
		if got := back.ToSpec(); !reflect.DeepEqual(got, orig) {
			t.Errorf("spec round trip mismatch:\n got %+v\nwant %+v", got, orig)
		}
	}
}

func TestSolverConfigRoundTrip(t *testing.T) {
	orig := scheduler.Config{Seed: 7, Effort: 0.5, GapTarget: 0.05,
		ExactTaskLimit: 9, ExactNodeLimit: 1000, Restarts: 3, Improver: "tabu"}
	data, err := json.Marshal(FromConfig(orig))
	if err != nil {
		t.Fatal(err)
	}
	var back SolverConfig
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.ToConfig(); !reflect.DeepEqual(got, orig) {
		t.Errorf("config round trip mismatch:\n got %+v\nwant %+v", got, orig)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	orig := core.DSEProfile
	data, err := json.Marshal(FromProfile(orig))
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.ToProfile(); got != orig {
		t.Errorf("profile round trip mismatch: got %+v want %+v", got, orig)
	}
}

func TestResultFieldNames(t *testing.T) {
	// The wire names are a compatibility contract: renaming one is a schema
	// break and must bump SchemaVersion.
	data, err := json.Marshal(FromResult(&core.Result{MakespanSec: 2, Speedup: 3, WLP: 1.5, Gap: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"schemaVersion"`, `"makespanSec"`, `"speedup"`, `"wlp"`, `"gap"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("marshaled result %s lacks %s", data, key)
		}
	}
}

func TestFromResultCancelledNeverProven(t *testing.T) {
	// The deadline can pass after a resolution's solve finished proven; the
	// evaluation is then cancelled and must not claim optimality.
	res := &core.Result{MakespanSec: 2, Cancelled: true, Sched: scheduler.Result{Proven: true, Method: "anneal"}}
	if out := FromResult(res); out.Proven || !out.Cancelled {
		t.Errorf("cancelled result: proven=%v cancelled=%v, want false/true", out.Proven, out.Cancelled)
	}
	res.Cancelled = false
	if out := FromResult(res); !out.Proven {
		t.Error("uncancelled proven result lost proven")
	}
}

func TestCheckVersion(t *testing.T) {
	if err := CheckVersion(0); err != nil {
		t.Errorf("version 0 rejected: %v", err)
	}
	if err := CheckVersion(SchemaVersion); err != nil {
		t.Errorf("current version rejected: %v", err)
	}
	if err := CheckVersion(SchemaVersion + 1); err == nil {
		t.Error("future version accepted")
	}
}

func TestDecodeModelFig2(t *testing.T) {
	data, err := os.ReadFile("../../examples/models/fig2.json")
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tasks) == 0 || len(m.Clusters) == 0 {
		t.Fatalf("fig2 model decoded empty: %d tasks, %d clusters", len(m.Tasks), len(m.Clusters))
	}
	if sp := ModelSpeedup(m, 10); sp <= 0 {
		t.Errorf("ModelSpeedup = %g, want > 0", sp)
	}
}

func TestDecodeModelRejectsInvalid(t *testing.T) {
	if _, err := DecodeModel([]byte(`{"Name":"x"}`)); err == nil {
		t.Error("model without clusters accepted")
	}
	if _, err := DecodeModel([]byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}
