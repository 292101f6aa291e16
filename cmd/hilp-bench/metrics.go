package main

import (
	"fmt"
	"math"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number. BENCHMARK.json at the repository root lists
// the same names, units and directions; bench_test.go keeps them in step.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of HILP sees, reported by every untraced run.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"latency_p50_s", "s", "lower"},
	{"latency_p95_s", "s", "lower"},
	{"alloc_mb_per_op", "MiB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"certified_frac", "fraction", "higher"},
	{"ub_over_lb_mean", "ratio", "lower"},
}

// layerMetric is a per-layer metric plus the end-to-end metric it should move
// and the workload on which it should move it.
type layerMetric struct {
	metric
	moves, on string
}

// Time shares are self time (span minus child spans) as a fraction of traced
// op wall time, so a layer that a workload never reaches reads 0 and the
// shares plus trace.unattributed_frac add up to 1.
func share(layer, moves, on string) layerMetric {
	return layerMetric{metric{layer + "_share", "fraction", "lower"}, moves, on}
}

var perLayer = []layerMetric{
	share("core.evaluate", "latency_p50_s", "evaluate"),
	share("core.refine", "latency_p50_s", "evaluate"),
	share("core.build", "latency_p50_s", "evaluate"),
	{metric{"core.refinements", "count", "lower"}, "latency_p95_s", "evaluate"},

	share("scheduler.solve", "latency_p50_s", "evaluate"),
	share("scheduler.bounds", "certified_frac", "evaluate"),
	share("scheduler.warmstart", "ops_per_s", "sweep"),
	share("scheduler.heuristics", "latency_p50_s", "evaluate"),
	share("scheduler.anneal", "latency_p50_s", "evaluate"),
	{metric{"scheduler.anneal_moves_per_s", "1/s", "higher"}, "ops_per_s", "sweep"},
	share("scheduler.destructive_lb", "certified_frac", "evaluate"),
	{metric{"scheduler.destructive_lb_raised_frac", "fraction", "higher"}, "ub_over_lb_mean", "evaluate"},
	share("scheduler.exact", "latency_p95_s", "serve"),
	{metric{"scheduler.exact_nodes", "count", "lower"}, "latency_p95_s", "serve"},
	{metric{"scheduler.exact_proved_frac", "fraction", "higher"}, "ub_over_lb_mean", "serve"},

	share("dse.sweep", "ops_per_s", "sweep"),
	share("dse.to_wire", "latency_p50_s", "sweep"),
	{metric{"dse.solved_frac", "fraction", "lower"}, "ops_per_s", "sweep"},
	{metric{"dse.cache_hit_frac", "fraction", "higher"}, "ops_per_s", "sweep"},
	{metric{"dse.warm_started_frac", "fraction", "higher"}, "ops_per_s", "sweep"},
	{metric{"dse.pruned_frac", "fraction", "higher"}, "ops_per_s", "sweep"},
	{metric{"dse.warm_speedup", "ratio", "higher"}, "latency_p50_s", "sweep"},

	share("journal.open_close", "ops_per_s", "sweep"),
	share("journal.append", "latency_p95_s", "sweep"),
	share("journal.sync", "ops_per_s", "sweep"),
	share("journal.replay", "ops_per_s", "sweep"),
	{metric{"journal.appends_per_op", "count", "lower"}, "latency_p95_s", "sweep"},
	{metric{"journal.bytes_per_op", "B", "lower"}, "latency_p95_s", "sweep"},
	{metric{"journal.append_p99_to_p50", "ratio", "lower"}, "latency_p95_s", "sweep"},

	share("wire.marshal", "latency_p50_s", "serve"),
	share("wire.canonical_key", "latency_p50_s", "serve"),
	{metric{"wire.response_bytes", "B", "lower"}, "latency_p50_s", "serve"},

	share("server.validate", "latency_p50_s", "serve"),
	share("server.cache_lookup", "latency_p50_s", "serve"),
	share("server.queue_wait", "latency_p95_s", "serve"),
	share("server.solve", "latency_p95_s", "serve"),
	share("server.encode", "latency_p50_s", "serve"),
	share("server.transport", "latency_p50_s", "serve"),
	{metric{"server.cache_hit_frac", "fraction", "higher"}, "ops_per_s", "serve"},
	{metric{"server.hit_to_miss_latency", "ratio", "lower"}, "latency_p50_s", "serve"},
	{metric{"server.rejected_frac", "fraction", "lower"}, "ops_per_s", "serve"},

	share("core.solve", "latency_p50_s", "milp"),
	{metric{"timeindexed.build_s", "s", "lower"}, "latency_p50_s", "milp"},
	{metric{"timeindexed.vars", "count", "lower"}, "latency_p50_s", "milp"},
	{metric{"milp.root_lp_s", "s", "lower"}, "latency_p50_s", "milp"},
	share("milp.bb", "ops_per_s", "milp"),
	{metric{"milp.nodes", "count", "lower"}, "ops_per_s", "milp"},
	{metric{"milp.pivots", "count", "lower"}, "ops_per_s", "milp"},
	{metric{"milp.pivots_per_s", "1/s", "higher"}, "ops_per_s", "milp"},

	{metric{"trace.unattributed_frac", "fraction", "lower"}, "latency_p50_s", "evaluate"},
	{metric{"trace.ops_per_s", "ops/s", "higher"}, "ops_per_s", "evaluate"},
}

// certifiedGap is the paper's near-optimality threshold.
const certifiedGap = 0.10

// ledger collects one run's measurements. Workloads fill it; report turns it
// into metrics.
type ledger struct {
	lat       []float64 // per-op latency in seconds
	attempted int
	failed    int
	failures  []string

	// Gap certificates of solved ops (pruned points and cache hits carry
	// none of their own and are left out).
	solved    int
	certified int
	ubOverLB  float64

	windowSec float64 // measurement wall time
	allocMiB  float64 // heap bytes allocated during the window
	rssMiB    float64 // resident-set high-water mark at the window's end
	layer     map[string]float64

	// The reference kernel's median time before the set-ups and after the
	// close, and the factor converting host into reference seconds
	// (hostspeed.go).
	kernelBefore, kernelAfter, scale float64
}

// op records one op's latency.
func (l *ledger) op(sec float64) {
	l.attempted++
	l.lat = append(l.lat, sec)
}

// fail counts a failed op; only the first few messages are kept.
func (l *ledger) fail(format string, args ...any) {
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// certificate records a solved op's relative optimality gap (UB-LB)/UB.
func (l *ledger) certificate(gap float64) {
	if !(gap >= 0 && gap < 1) {
		l.fail("gap %v outside [0, 1)", gap)
		return
	}
	l.solved++
	if gap <= certifiedGap+1e-12 {
		l.certified++
	}
	l.ubOverLB += 1 / (1 - gap)
}

func (l *ledger) setLayer(name string, v float64) {
	if l.layer == nil {
		l.layer = map[string]float64{}
	}
	l.layer[name] = v
}

// value is one reported metric value with its sample count.
type value struct {
	v float64
	n int
}

// endToEndValues computes the end-to-end metrics, in host seconds.
func (l *ledger) endToEndValues(setups []float64) map[string]value {
	ops := len(l.lat)
	out := map[string]value{
		"setup_s":         {median(setups), len(setups)},
		"ops_per_s":       {l.opsPerSec(), ops},
		"latency_p50_s":   {quantile(l.lat, 0.5), ops},
		"latency_p95_s":   {quantile(l.lat, 0.95), ops},
		"alloc_mb_per_op": {l.allocMiB / float64(ops), ops},
		"peak_rss_mb":     {l.rssMiB, 1},
		"certified_frac":  {float64(l.certified) / float64(l.solved), l.solved},
		"ub_over_lb_mean": {l.ubOverLB / float64(l.solved), l.solved},
	}
	return out
}

func (l *ledger) opsPerSec() float64 { return float64(len(l.lat)) / l.windowSec }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMiB reads the process's resident-set high-water mark (Linux).
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
