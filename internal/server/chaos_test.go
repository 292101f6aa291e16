package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"hilp/internal/faults"
	"hilp/internal/leakcheck"
	"hilp/internal/wire"
)

// pollJob polls a job URL until it leaves "running" or the deadline passes.
func pollJob(t *testing.T, base, url string) wire.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var j wire.Job
	for {
		r, err := http.Get(base + url)
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
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still running after 30s: %+v", j)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func sweepBody(t *testing.T) []byte {
	t.Helper()
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
	return data
}

// A solver that keeps failing inside the request must degrade the response,
// not fail it — and degraded responses must not poison the cache.
func TestServeDegradedSolve(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 1, Rate: 1, Times: 5,
		Kinds: []faults.Kind{faults.KindError}, Sites: []string{faults.SiteSolve}})
	_, ts := newTestServer(t, Config{Faults: inj})

	for _, rt := range solveRoutes(t) {
		for round, want := range []string{"miss", "miss"} {
			resp, body := post(t, ts.URL+rt.path, rt.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s round %d: status %d: %s", rt.path, round, resp.StatusCode, body)
			}
			// Both response shapes decode into this: evaluate fills Result,
			// batch fills Points.
			var out struct {
				Result wire.Result
				Points []wire.Point
			}
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			degraded, reason, speedup := out.Result.Degraded, out.Result.FallbackReason, out.Result.Speedup
			if len(out.Points) > 0 {
				p := out.Points[0]
				degraded, reason, speedup = p.Degraded, p.FallbackReason, p.Speedup
			}
			if !degraded || reason != "injected-fault" {
				t.Fatalf("%s round %d: degraded=%v reason=%q, want true/injected-fault",
					rt.path, round, degraded, reason)
			}
			if speedup <= 0 {
				t.Errorf("%s round %d: degraded result speedup %g", rt.path, round, speedup)
			}
			if got := resp.Header.Get("X-HILP-Cache"); got != want {
				t.Errorf("%s round %d: X-HILP-Cache = %q, want %q (degraded results must not be cached)",
					rt.path, round, got, want)
			}
		}
	}
}

// A panic outside the solver's own recover boundary must become a structured
// 500 on that request only; the server stays healthy for the next one.
func TestServeEvaluatePanic500HealthzOK(t *testing.T) {
	leakcheck.VerifyNoLeaks(t)
	inj := faults.New(faults.Config{Seed: 1, Rate: 1, Times: 100,
		Kinds: []faults.Kind{faults.KindPanic}, Sites: []string{faults.SiteEvaluate}})
	_, ts := newTestServer(t, Config{Faults: inj})

	resp, body := post(t, ts.URL+"/v1/evaluate", fastBody(t))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (%s), want 500", resp.StatusCode, body)
	}
	var e wire.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Code != "internal_panic" {
		t.Fatalf("error body %s, want code internal_panic", body)
	}

	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Errorf("healthz %d after a handler panic, want 200", h.StatusCode)
	}
}

// A transient serve-site fault consumes one retry and the job still finishes.
func TestServeJobRetrySucceeds(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 1, Rate: 1, Times: 1,
		Kinds: []faults.Kind{faults.KindError}, Sites: []string{faults.SiteServe}})
	_, ts := newTestServer(t, Config{Faults: inj, RetryBaseDelay: time.Millisecond})

	resp, body := post(t, ts.URL+"/v1/sweep", sweepBody(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var j wire.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	j = pollJob(t, ts.URL, j.URL)
	if j.Status != "done" {
		t.Fatalf("job status %q (%s), want done after one retry", j.Status, j.Error)
	}
	if j.Retries != 1 {
		t.Errorf("retries %d, want 1", j.Retries)
	}
	if j.Result == nil || len(j.Result.Points) != 2 {
		t.Fatalf("job result %+v", j.Result)
	}
	for i, p := range j.Result.Points {
		if p.Error != "" || p.Speedup <= 0 {
			t.Errorf("point %d after retry: %+v", i, p)
		}
	}
}

// A persistent serve-site fault exhausts the retry budget and fails the job
// with a structured error instead of hanging or crashing the pool.
func TestServeJobFailsAfterRetries(t *testing.T) {
	leakcheck.VerifyNoLeaks(t)
	inj := faults.New(faults.Config{Seed: 1, Rate: 1, Times: 10,
		Kinds: []faults.Kind{faults.KindError}, Sites: []string{faults.SiteServe}})
	_, ts := newTestServer(t, Config{Faults: inj, RetryBaseDelay: time.Millisecond})

	resp, body := post(t, ts.URL+"/v1/sweep", sweepBody(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var j wire.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	j = pollJob(t, ts.URL, j.URL)
	if j.Status != "failed" {
		t.Fatalf("job status %q, want failed", j.Status)
	}
	if j.Error == "" {
		t.Error("failed job carries no error message")
	}
	if j.Retries != 2 {
		t.Errorf("retries %d, want 2 (the default budget)", j.Retries)
	}
}

func TestServeBodyLimit413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	big := append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), 4096)...)
	big = append(big, []byte(`"}`)...)
	resp, body := post(t, ts.URL+"/v1/evaluate", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", resp.StatusCode, body)
	}
	var e wire.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Code != "too_large" {
		t.Errorf("error body %s, want code too_large", body)
	}
	// A request under the limit still works.
	if resp, out := post(t, ts.URL+"/v1/evaluate", []byte(`{}`)); resp.StatusCode == http.StatusRequestEntityTooLarge {
		t.Errorf("small body rejected as too large: %s", out)
	}
}

// Every malformed custom-model fixture must come back as a structured 422
// (bad_model, with field paths) or 400 (malformed_json), never a 500.
func TestServeMalformedModels(t *testing.T) {
	// modelReq wraps a model JSON object into an evaluate request.
	modelReq := func(model string) string {
		return fmt.Sprintf(`{"model":%s,"stepSec":1,"horizon":100}`, model)
	}
	valid := `{"Name":"m","Clusters":[{"Name":"cpu"}],"Tasks":[` +
		`{"Name":"a","Options":[{"Cluster":"cpu","Sec":2}]},` +
		`{"Name":"b","Deps":[{"Task":"a"}],"Options":[{"Cluster":"cpu","Sec":1}]}]}`

	cases := map[string]struct {
		body       string
		status     int
		code       string
		wantFields bool
	}{
		"valid baseline": {modelReq(valid), http.StatusOK, "", false},
		"negative seconds": {modelReq(`{"Name":"m","Clusters":[{"Name":"cpu"}],` +
			`"Tasks":[{"Name":"a","Options":[{"Cluster":"cpu","Sec":-2}]}]}`),
			http.StatusUnprocessableEntity, "bad_model", true},
		"empty compatibility row": {modelReq(`{"Name":"m","Clusters":[{"Name":"cpu"}],` +
			`"Tasks":[{"Name":"a","Options":[]}]}`),
			http.StatusUnprocessableEntity, "bad_model", true},
		"unknown cluster": {modelReq(`{"Name":"m","Clusters":[{"Name":"cpu"}],` +
			`"Tasks":[{"Name":"a","Options":[{"Cluster":"tpu","Sec":1}]}]}`),
			http.StatusUnprocessableEntity, "bad_model", true},
		"negative app": {modelReq(`{"Name":"m","Clusters":[{"Name":"cpu"}],` +
			`"Tasks":[{"Name":"a","App":-3,"Options":[{"Cluster":"cpu","Sec":1}]}]}`),
			http.StatusUnprocessableEntity, "bad_model", true},
		"dependency cycle": {modelReq(`{"Name":"m","Clusters":[{"Name":"cpu"}],"Tasks":[` +
			`{"Name":"a","Deps":[{"Task":"b"}],"Options":[{"Cluster":"cpu","Sec":1}]},` +
			`{"Name":"b","Deps":[{"Task":"a"}],"Options":[{"Cluster":"cpu","Sec":1}]}]}`),
			http.StatusUnprocessableEntity, "bad_model", true},
		"negative step": {fmt.Sprintf(`{"model":%s,"stepSec":-1,"horizon":100}`, valid),
			http.StatusUnprocessableEntity, "bad_model", true},
		// NaN is not JSON: a NaN smuggled as a string must die in decoding.
		"nan as string": {modelReq(`{"Name":"m","Clusters":[{"Name":"cpu"}],` +
			`"Tasks":[{"Name":"a","Options":[{"Cluster":"cpu","Sec":"NaN"}]}]}`),
			http.StatusBadRequest, "malformed_json", false},
		"truncated matrix": {`{"model":{"Name":"m","Clusters":[{"Name":"cpu"}],"Tasks":[{"Na`,
			http.StatusBadRequest, "malformed_json", false},
	}
	_, ts := newTestServer(t, Config{})
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			resp, out := post(t, ts.URL+"/v1/evaluate", []byte(tc.body))
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, out, tc.status)
			}
			if tc.status == http.StatusOK {
				return
			}
			var e wire.ErrorResponse
			if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %s", out)
			}
			if e.Code != tc.code {
				t.Errorf("code %q, want %q", e.Code, tc.code)
			}
			if tc.wantFields && len(e.Fields) == 0 {
				t.Errorf("422 response has no field diagnostics: %s", out)
			}
		})
	}
}
