package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
)

// reqIDKey keys the request-scoped correlation ID in a context.Context.
type reqIDKey struct{}

// WithRequestID returns a context carrying the correlation ID. Every log
// line, span annotation, and metric exemplar emitted under this context is
// stamped with the ID, so one request's activity can be reassembled across
// the HTTP edge, the sweep workers, and the solver internals.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestID returns the correlation ID carried by ctx, or "".
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// reqIDCounter de-duplicates IDs if the random source ever repeats within a
// process (and makes IDs unique even under a stubbed rand in tests).
var reqIDCounter atomic.Uint64

// NewRequestID returns a fresh correlation ID: 8 random bytes, hex-encoded,
// suffixed with a process-unique counter.
func NewRequestID() string {
	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; here a
		// counter-only ID keeps diagnostics alive.
		return fmt.Sprintf("req-%d", reqIDCounter.Add(1))
	}
	return hex.EncodeToString(raw[:]) + "-" + fmt.Sprint(reqIDCounter.Add(1))
}

// ParseLogLevel maps a -log-level flag value to a slog level.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
}

// Logger is the stack's structured logger: a thin nil-safe wrapper over
// *slog.Logger whose every emit path stamps the context's correlation ID.
// A nil *Logger is a valid, fully disabled logger — methods return
// immediately — so solver layers log unconditionally under the same <2%
// disabled-overhead contract as spans and metrics.
type Logger struct {
	sl  *slog.Logger
	min slog.Level
}

// NewLogger builds a logger writing to w. format selects the handler:
// "json" emits one JSON object per line; anything else emits logfmt-style
// text. level is the minimum level emitted.
func NewLogger(w io.Writer, format string, level slog.Level) *Logger {
	return NewLoggerHandler(reqHandler{NewHandler(w, format, level)}, level)
}

// NewLoggerHandler wraps an arbitrary slog.Handler (e.g. a Fanout of a
// writer handler and a LogBuffer). The handler should be wrapped in
// StampRequestID already if correlation stamping is wanted; NewLogger
// does this automatically.
func NewLoggerHandler(h slog.Handler, level slog.Level) *Logger {
	return &Logger{sl: slog.New(h), min: level}
}

// NewHandler builds a bare writer handler — "json" for one JSON object per
// line, anything else for logfmt-style text — for composing with Fanout and
// StampRequestID before wrapping in NewLoggerHandler.
func NewHandler(w io.Writer, format string, level slog.Level) slog.Handler {
	opts := &slog.HandlerOptions{Level: level}
	if strings.EqualFold(format, "json") {
		return slog.NewJSONHandler(w, opts)
	}
	return slog.NewTextHandler(w, opts)
}

// StampRequestID wraps h so every record it handles is stamped with the
// context's correlation ID (attribute "req") when one is present.
func StampRequestID(h slog.Handler) slog.Handler { return reqHandler{h} }

// Enabled reports whether a record at level would be emitted. Call sites use
// it to skip building expensive attributes.
func (l *Logger) Enabled(level slog.Level) bool {
	return l != nil && level >= l.min
}

// Log emits one structured record. args are alternating key/value pairs as
// in slog. The record is stamped with ctx's correlation ID (attribute "req")
// when one is present.
func (l *Logger) Log(ctx context.Context, level slog.Level, msg string, args ...any) {
	if l == nil || level < l.min {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	l.sl.Log(ctx, level, msg, args...)
}

// Debug emits at LevelDebug.
func (l *Logger) Debug(ctx context.Context, msg string, args ...any) {
	l.Log(ctx, slog.LevelDebug, msg, args...)
}

// Info emits at LevelInfo.
func (l *Logger) Info(ctx context.Context, msg string, args ...any) {
	l.Log(ctx, slog.LevelInfo, msg, args...)
}

// Warn emits at LevelWarn.
func (l *Logger) Warn(ctx context.Context, msg string, args ...any) {
	l.Log(ctx, slog.LevelWarn, msg, args...)
}

// Error emits at LevelError.
func (l *Logger) Error(ctx context.Context, msg string, args ...any) {
	l.Log(ctx, slog.LevelError, msg, args...)
}

// With returns a logger whose records carry the given attributes. Nil stays
// nil.
func (l *Logger) With(args ...any) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{sl: l.sl.With(args...), min: l.min}
}

// reqHandler stamps the context's correlation ID onto every record before
// delegating, so callers never thread IDs by hand.
type reqHandler struct {
	inner slog.Handler
}

func (h reqHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h reqHandler) Handle(ctx context.Context, r slog.Record) error {
	if id := RequestID(ctx); id != "" {
		r.AddAttrs(slog.String("req", id))
	}
	return h.inner.Handle(ctx, r)
}

func (h reqHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return reqHandler{h.inner.WithAttrs(attrs)}
}

func (h reqHandler) WithGroup(name string) slog.Handler {
	return reqHandler{h.inner.WithGroup(name)}
}

// Fanout returns a handler that delivers every record to all handlers (the
// first error wins). Use it to tee stderr output into a LogBuffer for the
// /debug/logs surface.
func Fanout(handlers ...slog.Handler) slog.Handler {
	return fanoutHandler(handlers)
}

type fanoutHandler []slog.Handler

func (f fanoutHandler) Enabled(ctx context.Context, level slog.Level) bool {
	for _, h := range f {
		if h.Enabled(ctx, level) {
			return true
		}
	}
	return false
}

func (f fanoutHandler) Handle(ctx context.Context, r slog.Record) error {
	var first error
	for _, h := range f {
		if !h.Enabled(ctx, r.Level) {
			continue
		}
		if err := h.Handle(ctx, r.Clone()); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (f fanoutHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	out := make(fanoutHandler, len(f))
	for i, h := range f {
		out[i] = h.WithAttrs(attrs)
	}
	return out
}

func (f fanoutHandler) WithGroup(name string) slog.Handler {
	out := make(fanoutHandler, len(f))
	for i, h := range f {
		out[i] = h.WithGroup(name)
	}
	return out
}
