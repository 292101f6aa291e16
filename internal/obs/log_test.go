package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"testing"
)

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	ctx := context.Background()
	// Every method must no-op on the nil receiver.
	l.Log(ctx, slog.LevelError, "boom", "k", "v")
	l.Debug(ctx, "d")
	l.Info(ctx, "i")
	l.Warn(ctx, "w")
	l.Error(ctx, "e")
	if l.Enabled(slog.LevelError) {
		t.Error("nil logger reports enabled")
	}
	if l.With("k", "v") != nil {
		t.Error("nil logger With() should stay nil")
	}

	// A nil Context must also absorb structured logs.
	var c *Context
	c.Log(ctx, slog.LevelError, "boom")
	if c.LogEnabled(slog.LevelError) {
		t.Error("nil context reports log enabled")
	}
}

func TestLoggerLevelsAndFormats(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "text", slog.LevelWarn)
	ctx := context.Background()
	l.Info(ctx, "hidden")
	l.Warn(ctx, "shown", "k", 1)
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("info line leaked past a warn threshold:\n%s", out)
	}
	if !strings.Contains(out, "shown") || !strings.Contains(out, "k=1") {
		t.Errorf("warn line missing or unstructured:\n%s", out)
	}

	buf.Reset()
	j := NewLogger(&buf, "json", slog.LevelInfo)
	j.Info(ctx, "json line", "answer", 42)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json format did not produce JSON: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "json line" || rec["answer"] != float64(42) {
		t.Errorf("json record = %v", rec)
	}
}

func TestRequestIDStampedOnRecords(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "json", slog.LevelInfo)
	ctx := WithRequestID(context.Background(), "abc-123")
	l.Info(ctx, "stamped")
	l.Info(context.Background(), "unstamped")

	dec := json.NewDecoder(&buf)
	var first, second map[string]any
	if err := dec.Decode(&first); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&second); err != nil {
		t.Fatal(err)
	}
	if first["req"] != "abc-123" {
		t.Errorf("record under a request context lacks req: %v", first)
	}
	if _, ok := second["req"]; ok {
		t.Errorf("record without a request context has req: %v", second)
	}
}

func TestWithRequestIDEmptyIsNoop(t *testing.T) {
	ctx := context.Background()
	if got := WithRequestID(ctx, ""); got != ctx {
		t.Error("empty ID should return the original context")
	}
	if RequestID(nil) != "" {
		t.Error("RequestID(nil) should be empty")
	}
}

func TestNewRequestIDDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate ID %q after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestParseLogLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "ERROR": slog.LevelError,
	} {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Error("want error for unknown level")
	}
}

func TestCLIVerboseAttachesInfoLogger(t *testing.T) {
	l := (&CLI{Verbose: true}).Context().Logger
	if !l.Enabled(slog.LevelInfo) {
		t.Error("-v logger does not log at info")
	}
	if l.Enabled(slog.LevelDebug) {
		t.Error("-v logger logs at debug")
	}
}

func TestFanoutDeliversToAll(t *testing.T) {
	var a, b bytes.Buffer
	h := Fanout(
		NewHandler(&a, "json", slog.LevelInfo),
		NewHandler(&b, "json", slog.LevelDebug),
	)
	l := NewLoggerHandler(StampRequestID(h), slog.LevelDebug)
	ctx := WithRequestID(context.Background(), "fan-1")
	l.Info(ctx, "both")
	l.Debug(ctx, "only-b")
	if got := strings.Count(a.String(), "\n"); got != 1 {
		t.Errorf("handler a got %d lines, want 1 (info only):\n%s", got, a.String())
	}
	if got := strings.Count(b.String(), "\n"); got != 2 {
		t.Errorf("handler b got %d lines, want 2:\n%s", got, b.String())
	}
	if !strings.Contains(a.String(), `"req":"fan-1"`) {
		t.Errorf("fanout lost the request stamp:\n%s", a.String())
	}
}

func TestLogBufferRing(t *testing.T) {
	b := NewLogBuffer(4)
	l := NewLoggerHandler(StampRequestID(b), slog.LevelDebug)
	ctx := WithRequestID(context.Background(), "ring-1")
	for i := 0; i < 10; i++ {
		l.Info(ctx, fmt.Sprintf("msg-%d", i), "i", i)
	}
	entries := b.Entries()
	if len(entries) != 4 {
		t.Fatalf("ring kept %d entries, want 4", len(entries))
	}
	if b.Total() != 10 {
		t.Errorf("total = %d, want 10", b.Total())
	}
	// Oldest-first: the ring retains the last 4 records.
	for i, e := range entries {
		want := fmt.Sprintf("msg-%d", 6+i)
		if e.Msg != want {
			t.Errorf("entry %d = %q, want %q", i, e.Msg, want)
		}
		if e.Req != "ring-1" {
			t.Errorf("entry %d req = %q, want ring-1", i, e.Req)
		}
		if e.Attrs["i"] != fmt.Sprint(6+i) {
			t.Errorf("entry %d attrs = %v", i, e.Attrs)
		}
		if e.Level != "INFO" {
			t.Errorf("entry %d level = %q", i, e.Level)
		}
	}
}

func TestLogBufferNilSafe(t *testing.T) {
	var b *LogBuffer
	if got := b.Entries(); got != nil {
		t.Errorf("nil buffer Entries() = %v", got)
	}
	if b.Total() != 0 {
		t.Error("nil buffer Total() != 0")
	}
}

func TestCaptureRuntimeAndBuildInfo(t *testing.T) {
	r := NewRegistry()
	CaptureRuntime(r)
	SetBuildInfo(r)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{MGoGoroutines, MGoHeapAllocBytes, MGoGCPauseSec, MGoGCCycles, MBuildInfo} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output lacks %s:\n%s", want, text)
		}
	}
	if r.Gauge(MGoGoroutines).Value() < 1 {
		t.Error("goroutine gauge should be >= 1")
	}
}

func TestHistogramExemplarRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", 0.1, 1, 10)
	h.ObserveEx(0.5, "req-a")
	h.ObserveEx(2.0, "req-b")
	ex := h.LastExemplar()
	if ex == nil || ex.Req != "req-b" || ex.Value != 2.0 {
		t.Fatalf("LastExemplar = %+v, want req-b/2.0", ex)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ex2 := r2.Histogram("test_seconds", 0.1, 1, 10).LastExemplar()
	if ex2 == nil || ex2.Req != "req-b" || ex2.Value != 2.0 {
		t.Fatalf("round-tripped exemplar = %+v, want req-b/2.0", ex2)
	}

	var buf2 bytes.Buffer
	if err := r2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("JSON round trip not byte-identical:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
}
