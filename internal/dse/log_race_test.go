package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"hilp/internal/obs"
	"hilp/internal/soc"
)

// lockedWriter serializes writes from concurrent sweep workers, so the test
// can decode whole JSON lines afterwards. (slog handlers already serialize
// per-record writes internally; the explicit mutex makes the test's own
// guarantee independent of that implementation detail.)
type lockedWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *lockedWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf.Bytes()...)
}

// TestConcurrentWorkersShareOneLogger drives many sweep workers through one
// shared structured logger and checks every emitted line is intact JSON with
// a per-point correlation ID. Run under -race (as CI does) it also proves the
// logger and the LogBuffer ring are data-race-free under worker fan-out.
func TestConcurrentWorkersShareOneLogger(t *testing.T) {
	w := &lockedWriter{}
	buf := obs.NewLogBuffer(1024)
	logger := obs.NewLoggerHandler(
		obs.StampRequestID(obs.Fanout(obs.NewHandler(w, "json", slog.LevelDebug), buf)),
		slog.LevelDebug,
	)
	octx := &obs.Context{Logger: logger, Metrics: obs.NewRegistry()}

	const n = 64
	specs := make([]soc.Spec, n)
	for i := range specs {
		specs[i] = soc.Spec{CPUCores: 1 + i%4, GPUSMs: 8, GPUFrequenciesMHz: []float64{300}}
	}
	eval := func(ctx context.Context, s soc.Spec) Point {
		// Every point logs through the one shared logger, concurrently.
		octx.Log(ctx, slog.LevelInfo, "point: evaluating", "label", s.Label())
		p := newPoint(s)
		p.Speedup = 1
		return p
	}
	ctx := obs.WithRequestID(context.Background(), "race-test")
	points := Run(ctx, specs, BatchOptions{Workers: 8, Obs: octx}, eval).Points

	seen := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(w.bytes()))
	for {
		var rec map[string]any
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("corrupt JSON log line (interleaved write?): %v", err)
		}
		if msg, _ := rec["msg"].(string); msg != "point: evaluating" {
			continue
		}
		req, _ := rec["req"].(string)
		if !strings.HasPrefix(req, "race-test/p") {
			t.Fatalf("point log line lacks a derived correlation ID: %v", rec)
		}
		seen[req] = true
	}
	if len(seen) != n {
		t.Fatalf("got %d distinct per-point IDs in the log, want %d", len(seen), n)
	}
	for i, p := range points {
		if !strings.HasPrefix(p.RequestID, "race-test/p") {
			t.Fatalf("point %d RequestID = %q, want race-test/p*", i, p.RequestID)
		}
	}
	// The shared ring captured the same records without racing the writers.
	if got := len(buf.Entries()); got < n {
		t.Fatalf("LogBuffer captured %d entries, want at least %d", got, n)
	}
}
