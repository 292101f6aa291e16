package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"hilp/internal/leakcheck"
	"hilp/internal/obs"
	"hilp/internal/wire"
)

// slowSweepBody marshals a sweep big enough to still be running while the
// test interacts with its event stream.
func slowSweepBody(t *testing.T) []byte {
	t.Helper()
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
	return data
}

// manyFastSweepBody marshals a sweep of many milliseconds-fast points, so a
// subscriber that connects moments after the POST still sees most of them
// complete live.
func manyFastSweepBody(t *testing.T) []byte {
	t.Helper()
	specs := make([]wire.SoC, 64)
	for i := range specs {
		specs[i] = wire.SoC{CPUCores: 1 + i%4, GPUSMs: 8 * (1 + i%8), GPUFrequenciesMHz: []float64{765}}
	}
	req := wire.SweepRequest{
		Workload: &wire.Workload{Apps: []wire.App{{Bench: "LUD"}, {Bench: "HS"}}},
		Specs:    specs,
		Profile:  &wire.Profile{InitialStepSec: 10, Horizon: 200, RefineWhileBelow: 0, MaxRefinements: 0},
		Solver:   &wire.SolverConfig{Seed: 1, Effort: 0.2},
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// startSweep posts a sweep and returns its job handle.
func startSweep(t *testing.T, url string, body []byte) wire.Job {
	t.Helper()
	resp, out := post(t, url+"/v1/sweep", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, out)
	}
	var j wire.Job
	if err := json.Unmarshal(out, &j); err != nil {
		t.Fatal(err)
	}
	if j.EventsURL == "" {
		t.Fatalf("job handle lacks eventsUrl: %+v", j)
	}
	return j
}

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct {
	Event string
	Data  obs.BusEvent
}

// readSSE consumes SSE frames from body until the stream ends, the limit is
// reached, or stop returns true for a frame.
func readSSE(t *testing.T, body *bufio.Scanner, limit int, stop func(sseFrame) bool) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			if cur.Event != "" {
				frames = append(frames, cur)
				if stop != nil && stop(cur) {
					return frames
				}
				if limit > 0 && len(frames) >= limit {
					return frames
				}
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.Data); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
		}
	}
	return frames
}

func TestJobEventsStream(t *testing.T) {
	leakcheck.VerifyNoLeaks(t)
	// The bus is a live feed, not a log: a fast sweep could finish points
	// before the client subscribes. A single worker grinding through 64 fast
	// points guarantees live completions arrive after the subscription; the
	// test stops at the first one instead of waiting out the whole sweep.
	_, ts := newTestServer(t, Config{Workers: 1})
	j := startSweep(t, ts.URL, manyFastSweepBody(t))

	resp, err := http.Get(ts.URL + j.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}

	frames := readSSE(t, bufio.NewScanner(resp.Body), 0, func(f sseFrame) bool {
		return f.Event == "point" || (f.Event == "job" && terminalJobStatus(f.Data.Status))
	})
	if len(frames) == 0 {
		t.Fatal("no SSE frames before stream end")
	}
	if frames[0].Event != "job" {
		t.Errorf("first frame %q, want the job snapshot", frames[0].Event)
	}
	last := frames[len(frames)-1]
	if last.Event != "point" {
		t.Fatalf("stream ended with %q (status %q) before any live point event", last.Event, last.Data.Status)
	}
	if last.Data.Req != j.RequestID && !strings.HasPrefix(last.Data.Req, j.RequestID+"/") {
		t.Errorf("point event req %q not derived from job request %q", last.Data.Req, j.RequestID)
	}
	if last.Data.Total != j.Total {
		t.Errorf("point event total=%d, want %d", last.Data.Total, j.Total)
	}
	if last.Data.Seq == 0 {
		t.Error("live point event lacks a bus sequence number")
	}
}

// TestJobEventsStreamSolverReq checks that a job's stream carries solver
// progress: a "solver" event (an improver's incumbent or a certificate) is
// stamped with the request ID of its sweep point, so the job filter passes it.
func TestJobEventsStreamSolverReq(t *testing.T) {
	leakcheck.VerifyNoLeaks(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	j := startSweep(t, ts.URL, manyFastSweepBody(t))

	resp, err := http.Get(ts.URL + j.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readSSE(t, bufio.NewScanner(resp.Body), 0, func(f sseFrame) bool {
		return f.Event == "solver" || (f.Event == "job" && terminalJobStatus(f.Data.Status))
	})
	if len(frames) == 0 {
		t.Fatal("no SSE frames before stream end")
	}
	last := frames[len(frames)-1]
	if last.Event != "solver" {
		t.Fatalf("stream ended with %q (status %q) before any solver event", last.Event, last.Data.Status)
	}
	if last.Data.Req != j.RequestID && !strings.HasPrefix(last.Data.Req, j.RequestID+"/") {
		t.Errorf("solver event req %q not derived from job request %q", last.Data.Req, j.RequestID)
	}
}

func TestJobEventsTerminalJobClosesImmediately(t *testing.T) {
	leakcheck.VerifyNoLeaks(t)
	s, ts := newTestServer(t, Config{})
	j := startSweep(t, ts.URL, sweepBody(t))

	// Wait for the job to finish, then subscribe: the stream must serve the
	// snapshot and end without waiting for events that will never come.
	waitJobTerminal(t, s, j.ID)
	resp, err := http.Get(ts.URL + j.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readSSE(t, bufio.NewScanner(resp.Body), 0, nil)
	if len(frames) != 1 || frames[0].Event != "job" || frames[0].Data.Status != "done" {
		t.Fatalf("frames %+v, want exactly the terminal snapshot", frames)
	}
}

// waitJobTerminal polls the job registry until the job leaves "running".
func waitJobTerminal(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		s.jobMu.Lock()
		j := s.jobs[id]
		s.jobMu.Unlock()
		if j.snapshot().Status != "running" {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 30s", id)
}

// waitSubscribers polls the bus until it has want subscribers.
func waitSubscribers(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.obs.Bus.SubscriberCount() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("bus has %d subscribers after 5s, want %d", s.obs.Bus.SubscriberCount(), want)
}

func TestJobEventsClientDisconnectReleasesSubscription(t *testing.T) {
	leakcheck.VerifyNoLeaks(t)
	s, ts := newTestServer(t, Config{Workers: 2})
	j := startSweep(t, ts.URL, slowSweepBody(t))

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+j.EventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitSubscribers(t, s, 1)

	// Dropping the client must release the handler's bus subscription.
	cancel()
	waitSubscribers(t, s, 0)
}

func TestJobEventsDrainReleasesSubscription(t *testing.T) {
	leakcheck.VerifyNoLeaks(t)
	s, ts := newTestServer(t, Config{Workers: 2})
	j := startSweep(t, ts.URL, slowSweepBody(t))

	resp, err := http.Get(ts.URL + j.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitSubscribers(t, s, 1)

	// Draining must end the stream server-side even though the client is
	// still reading — this is what lets http.Server.Shutdown complete.
	s.Drain()
	waitSubscribers(t, s, 0)
	if _, err := resp.Body.Read(make([]byte, 1)); err == nil {
		// Consume to EOF; the stream must terminate promptly.
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]byte, 4096)
			for {
				if _, err := resp.Body.Read(buf); err != nil {
					return
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("stream still open 5s after Drain")
		}
	}
}

func TestJobEventsNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

func TestJobEventsIgnoresOtherJobs(t *testing.T) {
	leakcheck.VerifyNoLeaks(t)
	_, ts := newTestServer(t, Config{})
	// Job A finishes while we stream job B: no frame of B's stream may carry
	// A's request lineage.
	jA := startSweep(t, ts.URL, sweepBody(t))
	jB := startSweep(t, ts.URL, sweepBody(t))

	resp, err := http.Get(ts.URL + jB.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readSSE(t, bufio.NewScanner(resp.Body), 0, func(f sseFrame) bool {
		return f.Event == "job" && terminalJobStatus(f.Data.Status)
	})
	for _, f := range frames {
		if f.Data.Job != "" && f.Data.Job != jB.ID {
			t.Errorf("frame for job %q leaked into job %q stream", f.Data.Job, jB.ID)
		}
		if f.Data.Req != "" && (f.Data.Req == jA.RequestID || strings.HasPrefix(f.Data.Req, jA.RequestID+"/")) {
			t.Errorf("frame with req %q (job A lineage) leaked into job B stream", f.Data.Req)
		}
	}
}

func TestSSEFrameFormat(t *testing.T) {
	rec := newRecorder()
	writeSSE(rec, 7, obs.BusEvent{Seq: 7, Kind: "point", Name: "soc", Req: "r1/p0", Value: 2.5})
	got := rec.buf.String()
	if !strings.HasPrefix(got, "id: 7\nevent: point\ndata: {") {
		t.Errorf("frame prefix wrong:\n%s", got)
	}
	if !strings.HasSuffix(got, "}\n\n") {
		t.Errorf("frame must end with a blank line:\n%s", got)
	}
	if strings.Count(got, "\n") != 4 {
		t.Errorf("frame has %d newlines, want 4:\n%s", strings.Count(got, "\n"), got)
	}
}

// recorder is a minimal ResponseWriter for frame-format tests.
type recorder struct {
	buf    bytes.Buffer
	header http.Header
}

func newRecorder() *recorder                    { return &recorder{header: http.Header{}} }
func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(p []byte) (int, error) { return r.buf.Write(p) }
func (r *recorder) WriteHeader(int)             {}
