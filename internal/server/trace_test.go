package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hilp/internal/obs"
)

func TestTraceparentMintedWhenAbsent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts.URL+"/v1/evaluate", fastBody(t))
	tp := resp.Header.Get("Traceparent")
	tc, err := obs.ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", tp, err)
	}
	if !tc.Valid() {
		t.Fatalf("minted trace context invalid: %q", tp)
	}
}

func TestTraceparentContinued(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	parent := "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/evaluate", bytes.NewReader(fastBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tc, err := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tc.TraceIDString(); got != "0123456789abcdef0123456789abcdef" {
		t.Errorf("trace ID %s, want the incoming one continued", got)
	}
	if tc.SpanIDString() == "00f067aa0ba902b7" {
		t.Error("server reused the parent span ID instead of minting a child")
	}
}

func TestStageAttribution(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, rt := range solveRoutes(t) {
		resp, body := post(t, ts.URL+rt.path, rt.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", rt.path, resp.StatusCode, body)
		}
		reqID := resp.Header.Get("X-Request-ID")

		r, err := http.Get(ts.URL + "/debug/requests")
		if err != nil {
			t.Fatal(err)
		}
		var dump debugRequestsResponse
		err = json.NewDecoder(r.Body).Decode(&dump)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var sum *RequestSummary
		for i := range dump.Requests {
			if dump.Requests[i].ID == reqID {
				sum = &dump.Requests[i]
				break
			}
		}
		if sum == nil {
			t.Fatalf("%s: request %s not in /debug/requests", rt.path, reqID)
		}
		if sum.TraceID == "" {
			t.Errorf("%s: summary lacks traceId", rt.path)
		}
		for _, st := range []string{obs.StageValidate, obs.StageCacheLookup, obs.StageSchedule, obs.StageSolve, obs.StageEncode} {
			if _, ok := sum.Stages[st]; !ok {
				t.Errorf("%s: summary stages lack %q: %v", rt.path, st, sum.Stages)
			}
		}
		// The stages partition the request: their sum must explain the
		// recorded total within 5% (plus a small absolute allowance for
		// sub-millisecond scheduling noise). Fallback is excluded — it nests
		// inside solve.
		var total float64
		for name, sec := range sum.Stages {
			if name != obs.StageFallback {
				total += sec
			}
		}
		slack := 0.05*sum.DurationSec + 500e-6
		if total > sum.DurationSec {
			t.Errorf("%s: stage sum %.6fs exceeds request duration %.6fs", rt.path, total, sum.DurationSec)
		}
		if sum.DurationSec-total > slack {
			t.Errorf("%s: stage sum %.6fs explains too little of request duration %.6fs (slack %.6fs)",
				rt.path, total, sum.DurationSec, slack)
		}
	}
}

func TestStageHistogramsExported(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/evaluate", fastBody(t))
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	text := buf.String()
	for _, st := range obs.Stages {
		name := obs.StageMetricName(st)
		if !strings.Contains(text, name) {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	if !strings.Contains(text, obs.MEventsDropped) {
		t.Errorf("/metrics lacks %s", obs.MEventsDropped)
	}
	if !strings.Contains(text, obs.MServeSubscribers) {
		t.Errorf("/metrics lacks %s", obs.MServeSubscribers)
	}
}

func TestDebugEndpointsHonorN(t *testing.T) {
	logBuf := obs.NewLogBuffer(64)
	octx := &obs.Context{Metrics: obs.NewRegistry(), Logger: obs.NewLoggerHandler(logBuf, slog.LevelDebug)}
	_, ts := newTestServer(t, Config{Obs: octx, LogBuffer: logBuf})
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/v1/evaluate", fastBody(t))
	}

	var dump debugRequestsResponse
	r, err := http.Get(ts.URL + "/debug/requests?n=2")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(r.Body).Decode(&dump)
	r.Body.Close()
	if len(dump.Requests) != 2 {
		t.Errorf("/debug/requests?n=2 returned %d summaries, want 2", len(dump.Requests))
	}
	if dump.Total < 3 {
		t.Errorf("total %d, want >= 3", dump.Total)
	}

	var logs debugLogsResponse
	r, err = http.Get(ts.URL + "/debug/logs?n=1")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(r.Body).Decode(&logs)
	r.Body.Close()
	if len(logs.Entries) != 1 {
		t.Errorf("/debug/logs?n=1 returned %d entries, want 1", len(logs.Entries))
	}
}

func TestRequestSpansExported(t *testing.T) {
	var mu sync.Mutex
	var bodies []string
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		mu.Lock()
		bodies = append(bodies, buf.String())
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer collector.Close()

	exp := obs.NewOTLPExporter(collector.URL, "hilp-serve-test")
	defer exp.Close()
	_, ts := newTestServer(t, Config{OTLP: exp})

	parent := "00-aaaabbbbccccddddaaaabbbbccccdddd-00f067aa0ba902b7-01"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/evaluate", bytes.NewReader(fastBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	reqID := resp.Header.Get("X-Request-ID")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := exp.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	all := strings.Join(bodies, "\n")
	mu.Unlock()
	// The request span and its stage children all carry the incoming trace ID
	// and the request's correlation ID.
	if !strings.Contains(all, "aaaabbbbccccddddaaaabbbbccccdddd") {
		t.Error("exported spans lack the request's trace ID")
	}
	if !strings.Contains(all, "POST /v1/evaluate") {
		t.Error("exported spans lack the request span")
	}
	if !strings.Contains(all, "stage:"+obs.StageSolve) {
		t.Error("exported spans lack the solve stage child")
	}
	if !strings.Contains(all, reqID) {
		t.Error("exported spans lack the hilp.request_id attribute")
	}
}
