package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"hilp/internal/obs"
	"hilp/internal/wire"
)

// fastBody is an evaluate request small enough to solve in milliseconds.
func fastBody(t *testing.T) []byte {
	t.Helper()
	req := wire.EvaluateRequest{
		Workload: &wire.Workload{Apps: []wire.App{{Bench: "LUD"}, {Bench: "HS"}}},
		SoC:      &wire.SoC{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}},
		Profile:  &wire.Profile{InitialStepSec: 10, Horizon: 200, RefineWhileBelow: 0, MaxRefinements: 0},
		Solver:   &wire.SolverConfig{Seed: 1, Effort: 0.2},
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// solveRoute is one of the cached solve routes and a fast request for it.
type solveRoute struct {
	path string
	body []byte
}

// solveRoutes lists the routes sharing the cached-solve pipeline, so tests of
// admission, caching and stage attribution cover both.
func solveRoutes(t *testing.T) []solveRoute {
	return []solveRoute{
		{"/v1/evaluate", fastBody(t)},
		{"/v1/batch", batchBody(t, nil)},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestEvaluateTemplate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/evaluate", fastBody(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out wire.EvaluateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.SchemaVersion != wire.SchemaVersion {
		t.Errorf("schemaVersion %d, want %d", out.SchemaVersion, wire.SchemaVersion)
	}
	if out.Result.Speedup <= 0 || math.IsInf(out.Result.Speedup, 0) || math.IsNaN(out.Result.Speedup) {
		t.Errorf("speedup %g, want finite > 0", out.Result.Speedup)
	}
	if out.Result.Cancelled {
		t.Error("uncancelled solve reported cancelled")
	}
	if out.Result.SpecLabel == "" {
		t.Error("result lacks specLabel")
	}
}

func TestEvaluateCacheByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := fastBody(t)

	resp1, out1 := post(t, ts.URL+"/v1/evaluate", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first: status %d: %s", resp1.StatusCode, out1)
	}
	if got := resp1.Header.Get("X-HILP-Cache"); got != "miss" {
		t.Errorf("first X-HILP-Cache = %q, want miss", got)
	}

	resp2, out2 := post(t, ts.URL+"/v1/evaluate", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second: status %d: %s", resp2.StatusCode, out2)
	}
	if got := resp2.Header.Get("X-HILP-Cache"); got != "hit" {
		t.Errorf("second X-HILP-Cache = %q, want hit", got)
	}
	if !bytes.Equal(out1, out2) {
		t.Errorf("cached response differs from first:\n%s\nvs\n%s", out1, out2)
	}
	if hits := s.obs.Metrics.Counter(obs.MServeCacheHits).Value(); hits != 1 {
		t.Errorf("%s = %d, want 1", obs.MServeCacheHits, hits)
	}

	// Same request, different whitespace: canonicalization must still hit.
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, body, "", "   "); err != nil {
		t.Fatal(err)
	}
	resp3, _ := post(t, ts.URL+"/v1/evaluate", pretty.Bytes())
	if got := resp3.Header.Get("X-HILP-Cache"); got != "hit" {
		t.Errorf("reformatted request X-HILP-Cache = %q, want hit", got)
	}
}

func TestEvaluateModelFig2(t *testing.T) {
	data, err := os.ReadFile("../../examples/models/fig2.json")
	if err != nil {
		t.Fatal(err)
	}
	m, err := wire.DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(wire.EvaluateRequest{Model: &m, StepSec: 1, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out wire.EvaluateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result.Speedup <= 0 || math.IsInf(out.Result.Speedup, 0) {
		t.Errorf("model speedup %g, want finite > 0", out.Result.Speedup)
	}
	if out.Result.MakespanSec <= 0 {
		t.Errorf("model makespan %g, want > 0", out.Result.MakespanSec)
	}
}

func TestEvaluateDeadlineReturnsIncumbent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := wire.EvaluateRequest{
		Workload:   &wire.Workload{Name: "default"},
		SoC:        &wire.SoC{CPUCores: 4, GPUSMs: 64},
		Solver:     &wire.SolverConfig{Seed: 1, Effort: 50},
		TimeoutSec: 0.02,
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/v1/evaluate", data)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out wire.EvaluateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Result.Cancelled {
		t.Fatal("20ms budget on a 10-app, 50x-effort solve was not cancelled")
	}
	if out.Result.MakespanSec <= 0 {
		t.Errorf("cancelled result has no incumbent: makespan %g", out.Result.MakespanSec)
	}
	if out.Result.Gap < 0 || math.IsInf(out.Result.Gap, 0) || math.IsNaN(out.Result.Gap) {
		t.Errorf("cancelled result gap %g, want finite >= 0", out.Result.Gap)
	}
	if out.Result.Proven {
		t.Error("cancelled result claims proven optimality")
	}
}

func TestEvaluateBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := map[string]struct {
		body   string
		status int
		code   string
	}{
		"malformed":     {`{"workload": nope}`, http.StatusBadRequest, "malformed_json"},
		"unknown field": {`{"soc":{"cpuCores":1},"warpDrive":9}`, http.StatusBadRequest, "malformed_json"},
		"missing soc":   {`{"workload":{"name":"default"}}`, http.StatusBadRequest, "bad_request"},
		"bad baseline":  {`{"soc":{"cpuCores":1},"baseline":"astrology"}`, http.StatusBadRequest, "bad_request"},
		// Unknown workloads and benchmarks are model-validation failures: 422
		// with a field-addressed diagnostic, not a bare 400.
		"bad workload": {`{"workload":{"name":"galaxy"},"soc":{"cpuCores":1}}`,
			http.StatusUnprocessableEntity, "bad_model"},
		"future version": {fmt.Sprintf(`{"schemaVersion":%d,"soc":{"cpuCores":1}}`, wire.SchemaVersion+1),
			http.StatusBadRequest, "version"},
	}
	for name, tc := range cases {
		resp, out := post(t, ts.URL+"/v1/evaluate", []byte(tc.body))
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d (%s), want %d", name, resp.StatusCode, out, tc.status)
		}
		var e wire.ErrorResponse
		if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %s", name, out)
		}
		if e.Code != tc.code {
			t.Errorf("%s: code %q, want %q", name, e.Code, tc.code)
		}
	}

	// An unknown improver fails the validate stage of every solve route,
	// before admission, and the error names the improvers there are.
	for path, body := range map[string]string{
		"/v1/evaluate": `{"soc":{"cpuCores":1},"solver":{"improver":"foo"}}`,
		"/v1/batch":    `{"specs":[{"cpuCores":1}],"solver":{"improver":"foo"}}`,
		"/v1/sweep":    `{"specs":[{"cpuCores":1}],"solver":{"improver":"foo"}}`,
	} {
		resp, out := post(t, ts.URL+path, []byte(body))
		var e wire.ErrorResponse
		if err := json.Unmarshal(out, &e); err != nil {
			t.Errorf("%s: error body %s", path, out)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Code != "bad_request" || !strings.Contains(e.Error, "milp") {
			t.Errorf("%s with an unknown improver: status %d code %q error %q, want 400 bad_request naming milp",
				path, resp.StatusCode, e.Code, e.Error)
		}
	}
}

// TestSweepJobGablesBaseline runs a v1 sweep under the Gables baseline: the
// job completes with clean points, and the duplicated spec is solved again
// rather than replayed, because v1 sweeps leave the engine's cache off.
func TestSweepJobGablesBaseline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := wire.SoC{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}}
	req := wire.SweepRequest{
		Workload: &wire.Workload{Apps: []wire.App{{Bench: "LUD"}, {Bench: "HS"}}},
		Baseline: "gables",
		Specs:    []wire.SoC{{CPUCores: 1, GPUFrequenciesMHz: []float64{765}}, spec, spec},
		Profile:  &wire.Profile{InitialStepSec: 10, Horizon: 200, RefineWhileBelow: 0, MaxRefinements: 0},
		Solver:   &wire.SolverConfig{Seed: 1, Effort: 0.2},
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/v1/sweep", data)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var j wire.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	j = pollJob(t, ts.URL, j.URL)
	if j.Status != "done" {
		t.Fatalf("job status %q (%s), want done", j.Status, j.Error)
	}
	if j.Result == nil || len(j.Result.Points) != 3 {
		t.Fatalf("job result %+v", j.Result)
	}
	for i, p := range j.Result.Points {
		if p.Error != "" || p.Speedup <= 0 || p.Cancelled || p.Degraded || p.CacheHit {
			t.Errorf("point %d not a clean cold solve: %+v", i, p)
		}
	}
	if a, b := j.Result.Points[1], j.Result.Points[2]; a.Speedup != b.Speedup || a.MakespanSec != b.MakespanSec {
		t.Errorf("duplicate specs disagree: %+v vs %+v", a, b)
	}
}

func TestSweepJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := wire.SweepRequest{
		Workload: &wire.Workload{Apps: []wire.App{{Bench: "LUD"}, {Bench: "HS"}}},
		Specs: []wire.SoC{
			{CPUCores: 1, GPUFrequenciesMHz: []float64{765}},
			{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}},
		},
		Profile: &wire.Profile{InitialStepSec: 10, Horizon: 200, RefineWhileBelow: 0, MaxRefinements: 0},
		Solver:  &wire.SolverConfig{Seed: 1, Effort: 0.2},
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/v1/sweep", data)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var j wire.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.Total != 2 {
		t.Fatalf("job handle %+v", j)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + j.URL)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", r.StatusCode, buf.String())
		}
		if err := json.Unmarshal(buf.Bytes(), &j); err != nil {
			t.Fatal(err)
		}
		if j.Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep still running after 30s: %+v", j)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if j.Status != "done" {
		t.Fatalf("job status %q, want done", j.Status)
	}
	if j.Result == nil || len(j.Result.Points) != 2 {
		t.Fatalf("job result %+v", j.Result)
	}
	for i, p := range j.Result.Points {
		if p.Error != "" || p.Speedup <= 0 {
			t.Errorf("point %d: %+v", i, p)
		}
	}
	if len(j.Result.Pareto) == 0 {
		t.Error("no pareto points")
	}
	// The accelerated SoC dominates.
	if j.Result.Points[1].Speedup <= j.Result.Points[0].Speedup {
		t.Errorf("GPU SoC %g not faster than CPU-only %g",
			j.Result.Points[1].Speedup, j.Result.Points[0].Speedup)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

func TestShutdownCancelsJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	// A sweep big and slow enough to still be running at shutdown.
	specs := make([]wire.SoC, 64)
	for i := range specs {
		specs[i] = wire.SoC{CPUCores: 4, GPUSMs: 64}
	}
	req := wire.SweepRequest{
		Workload: &wire.Workload{Name: "default"},
		Specs:    specs,
		Solver:   &wire.SolverConfig{Seed: 1, Effort: 10},
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/v1/sweep", data)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var j wire.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}

	s.jobMu.Lock()
	jb := s.jobs[j.ID]
	s.jobMu.Unlock()
	snap := jb.snapshot()
	if snap.Status != "cancelled" {
		t.Fatalf("job status %q after shutdown, want cancelled", snap.Status)
	}
	if snap.Result == nil || len(snap.Result.Points) != len(specs) {
		t.Fatalf("cancelled job result %+v", snap.Result)
	}
	// Undispatched points must be marked, not silently dropped.
	marked := 0
	for _, p := range snap.Result.Points {
		if p.Error != "" || p.Cancelled {
			marked++
		}
	}
	if marked == 0 {
		t.Error("shutdown mid-sweep left no point marked cancelled or errored")
	}
}

func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Occupy the only worker, then saturate the admission window (the pool
	// admits Workers+QueueDepth waiters) so the next request is rejected.
	s.tokens <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	acquired := make(chan error, 2)
	go func() { acquired <- s.acquire(ctx) }()
	go func() { acquired <- s.acquire(ctx) }()
	// Wait until both queued acquires are counted.
	for i := 0; s.waiting.Load() < 2 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}

	for i, rt := range solveRoutes(t) {
		resp, body := post(t, ts.URL+rt.path, rt.body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d (%s), want 429", rt.path, resp.StatusCode, body)
		}
		if rejected := s.obs.Metrics.Counter(obs.MServeRejected).Value(); rejected != int64(i+1) {
			t.Errorf("%s: %s = %d, want %d", rt.path, obs.MServeRejected, rejected, i+1)
		}
	}

	cancel()
	for i := 0; i < 2; i++ {
		if err := <-acquired; err == nil {
			s.release()
		}
	}
	<-s.tokens
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}

	// One solve so counters exist.
	post(t, ts.URL+"/v1/evaluate", fastBody(t))

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", mresp.StatusCode)
	}
	for _, name := range []string{obs.MServeRequests, obs.MServeCacheMisses, obs.MSolves} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("metrics output lacks %s", name)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Error("b not evicted")
	}
	if v, ok := c.get("a"); !ok || string(v) != "A" {
		t.Error("a lost")
	}
	if v, ok := c.get("c"); !ok || string(v) != "C" {
		t.Error("c missing")
	}
	if c.len() != 2 {
		t.Errorf("len %d, want 2", c.len())
	}
}
