package obs

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"path/filepath"
	"strings"
	"time"
)

// CLI bundles the observability flags shared by the hilp binaries:
//
//	-trace file        write a Chrome trace-event JSON file (chrome://tracing)
//	-metrics file      write a metrics dump (.prom/.txt → Prometheus text, else JSON)
//	-v                 progress logging to stderr (slog text, info and up)
//	-pprof addr        serve net/http/pprof on addr (e.g. localhost:6060)
//	-log-format fmt    structured logging to stderr: text or json
//	-log-level level   minimum structured-log level: debug, info, warn, error
//	-otlp-endpoint url POST completed spans as OTLP/HTTP JSON on exit
//
// Usage: Register the flags, flag.Parse, then Context() to get the (possibly
// nil) *Context to thread into solver configs, and defer Close() to flush
// the output files and export spans.
type CLI struct {
	TracePath    string
	MetricsPath  string
	PprofAddr    string
	Verbose      bool
	LogFormat    string
	LogLevel     string
	OTLPEndpoint string

	// Service is the OTLP service.name resource attribute; defaults to the
	// binary's base name.
	Service string
	// RequestID, when set by the binary, is attached to the exported root
	// span as the hilp.request_id attribute, linking the trace to log lines
	// and /debug surfaces.
	RequestID string

	ctx   *Context
	epoch time.Time
}

// Register installs the flags on fs (flag.CommandLine when nil).
func (c *CLI) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&c.TracePath, "trace", "", "write a Chrome trace-event JSON file (load at chrome://tracing)")
	fs.StringVar(&c.MetricsPath, "metrics", "", "write a metrics dump (.prom/.txt: Prometheus text, otherwise JSON)")
	fs.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.BoolVar(&c.Verbose, "v", false, "progress logging to stderr (slog text, info and up)")
	fs.StringVar(&c.LogFormat, "log-format", "", "structured logging to stderr: text or json (empty disables unless -v)")
	fs.StringVar(&c.LogLevel, "log-level", "info", "minimum structured-log level: debug, info, warn, or error")
	fs.StringVar(&c.OTLPEndpoint, "otlp-endpoint", "", "OTLP/HTTP JSON trace endpoint (e.g. http://localhost:4318/v1/traces); spans are exported on exit")
}

// Context builds the observability context selected by the flags and starts
// the pprof server when requested. It returns nil when every flag is off, so
// the fully disabled path stays a nil *Context.
func (c *CLI) Context() *Context {
	if c.ctx != nil {
		return c.ctx
	}
	if c.PprofAddr != "" {
		addr := c.PprofAddr
		go func() {
			defer func() {
				if r := recover(); r != nil {
					fmt.Fprintf(os.Stderr, "obs: pprof server on %s panicked (recovered): %v\n", addr, r)
				}
			}()
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "obs: pprof server on %s: %v\n", addr, err)
			}
		}()
	}
	if c.TracePath == "" && c.MetricsPath == "" && !c.Verbose && c.LogFormat == "" && c.OTLPEndpoint == "" {
		return nil
	}
	ctx := &Context{}
	if c.TracePath != "" || c.OTLPEndpoint != "" {
		// OTLP export reuses the span buffer: batch binaries record the run's
		// spans and convert the snapshot into one trace at Close.
		ctx.Tracer = NewTracer()
		c.epoch = time.Now()
	}
	if c.MetricsPath != "" {
		ctx.Metrics = NewRegistry()
	}
	switch {
	case c.LogFormat != "":
		level, err := ParseLogLevel(c.LogLevel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs: %v; using info\n", err)
		}
		// -v without an explicit level lowers the floor to debug.
		if c.Verbose && c.LogLevel == "info" {
			level = slog.LevelDebug
		}
		ctx.Logger = NewLogger(os.Stderr, c.LogFormat, level)
	case c.Verbose:
		ctx.Logger = NewLogger(os.Stderr, "text", slog.LevelInfo)
	}
	c.ctx = ctx
	return ctx
}

// Close flushes the trace and metrics files and exports spans to the OTLP
// endpoint when one was given. Call it once, after the work being observed
// finishes.
func (c *CLI) Close() error {
	ctx := c.ctx
	if ctx == nil {
		return nil
	}
	if c.OTLPEndpoint != "" && ctx.Tracer != nil {
		if err := c.exportOTLP(ctx.Tracer); err != nil {
			fmt.Fprintf(os.Stderr, "obs: otlp export: %v\n", err)
		}
	}
	if c.TracePath != "" && ctx.Tracer != nil {
		f, err := os.Create(c.TracePath)
		if err != nil {
			return err
		}
		if err := ctx.Tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if c.MetricsPath != "" && ctx.Metrics != nil {
		f, err := os.Create(c.MetricsPath)
		if err != nil {
			return err
		}
		var werr error
		if strings.HasSuffix(c.MetricsPath, ".prom") || strings.HasSuffix(c.MetricsPath, ".txt") {
			werr = ctx.Metrics.WritePrometheus(f)
		} else {
			werr = ctx.Metrics.WriteJSON(f)
		}
		if werr != nil {
			f.Close()
			return werr
		}
		return f.Close()
	}
	return nil
}

// exportOTLP converts the tracer snapshot into one OTLP trace — a synthetic
// root span covering the whole run, with every recorded span hanging off it
// by time containment — and POSTs it to the configured endpoint.
func (c *CLI) exportOTLP(t *Tracer) error {
	snap := t.Snapshot()
	if len(snap) == 0 {
		return nil
	}
	service := c.Service
	if service == "" {
		service = filepath.Base(os.Args[0])
	}
	tc := NewTraceContext()
	spans := SpansToOTLP(snap, tc, c.epoch)
	// Root span: spans the earliest start to the latest end of the run.
	var lo, hi int64
	for i, sp := range spans {
		if i == 0 || sp.StartUnixNano < lo {
			lo = sp.StartUnixNano
		}
		if sp.EndUnixNano > hi {
			hi = sp.EndUnixNano
		}
	}
	root := OTLPSpan{
		TraceID:       tc.TraceIDString(),
		SpanID:        tc.SpanIDString(),
		Name:          service,
		StartUnixNano: lo,
		EndUnixNano:   hi,
	}
	if c.RequestID != "" {
		root.Attrs = append(root.Attrs, OTLPStr("hilp.request_id", c.RequestID))
	}
	exp := NewOTLPExporter(c.OTLPEndpoint, service)
	exp.Enqueue(root)
	exp.EnqueueAll(spans)
	flushCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := exp.Flush(flushCtx)
	if cerr := exp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if _, failed, dropped := exp.Stats(); failed > 0 || dropped > 0 {
			err = fmt.Errorf("%d spans failed, %d dropped", failed, dropped)
		}
	}
	return err
}
