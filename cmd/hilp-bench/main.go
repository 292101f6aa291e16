// Command hilp-bench is HILP's end-to-end benchmark. It runs four workloads
// — sweep, evaluate, serve, milp — that each drive a different part of the
// stack through its public functions, checks every result for correctness,
// and prints each end-to-end metric as
//
//	<workload> <metric> <value> <unit> n=<samples>
//
// followed by a one-line JSON summary. A traced run (-trace 1) makes the
// same calls with a span tracer in the program's obs context and prints
// per-layer metrics instead. See README.md for the workloads, metrics and
// bounds.
//
// Usage:
//
//	go run ./cmd/hilp-bench -seed 1                     # all workloads, one child process each
//	go run ./cmd/hilp-bench -workload evaluate -seed 2  # one workload, in this process
//	go run ./cmd/hilp-bench -trace-dir traces           # also traced runs, spans in traces/<workload>.json
//	go run ./cmd/hilp-bench -smoke                      # a few fixed ops per workload
//
// The exit status is 0 when every op succeeded and passed its checks.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	// smokeUnits is how many loop units (ops; batches for sweep; requests per
	// client for serve) a -smoke run makes.
	smokeUnits int
	// round is the period, in loop units, of the plan's strata; a timed run
	// ends on a round boundary so every run covers the same mix.
	round int
	setup func(e *env) (bench, error)
}

var workloads = []workload{
	{name: "sweep", smokeUnits: 1, round: sweepRound, setup: setupSweep},
	{name: "evaluate", smokeUnits: 4, round: evalRound, setup: setupEvaluate},
	{name: "serve", smokeUnits: serveBlockLen, round: serveBlockLen, setup: setupServe},
	{name: "milp", smokeUnits: milpRound, round: milpRound, setup: setupMILP},
}

// bench is a set-up workload, ready to run.
type bench interface {
	// run executes ops while bud allows, recording them in l.
	run(ctx context.Context, bud budget, l *ledger)
	// check verifies results after the timed window.
	check(ctx context.Context, l *ledger)
	// layers records workload-specific per-layer metrics of a traced run.
	layers(l *ledger, st *spanTimes)
	close() error
}

// env is what a workload's set-up gets.
type env struct {
	seed       int64
	smoke      bool
	smokeUnits int
	tr         *tracing // nil when untraced
	dir        string   // scratch directory
}

// planned is how many ops a set-up draws ahead: n normally, the smoke size
// under -smoke. Runs that outlast the plan keep drawing from the same stream.
func (e *env) planned(n int) int {
	if e.smoke {
		return e.smokeUnits
	}
	return n
}

// budget decides whether a loop runs another unit: under -smoke, until it
// has run units; otherwise until the deadline has passed and the loop is at
// a round boundary.
type budget struct {
	units    int
	deadline time.Time
	round    int
}

func (b budget) more(done int) bool {
	if b.units > 0 {
		return done < b.units
	}
	return time.Now().Before(b.deadline) || done%b.round != 0
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceDir string
	smoke    bool
	workdir  string
}

func main() {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(2)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hilp-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, one child process each)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "length of each run's timed window")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", "", "write Chrome-trace spans to `dir`/<workload>.json (implies -trace 1)")
	fs.BoolVar(&o.smoke, "smoke", false, "run a few fixed ops per workload instead of a timed window")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "scratch `dir` for journals, removed after each run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.traceDir != "" {
		o.trace = 1
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "hilp-bench: -trace %d, want 0 or 1\n", o.trace)
		return 2
	}
	if o.workload == "" {
		return runAll(o, stdout, stderr)
	}
	for _, w := range workloads {
		if w.name == o.workload {
			return runOne(w, o, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "hilp-bench: unknown workload %q\n", o.workload)
	return 2
}

// summary is the JSON line that ends a run's output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(w workload, o options, stdout, stderr io.Writer) int {
	l, setups, err := measure(context.Background(), w, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "hilp-bench: %s: %v\n", w.name, err)
		return 1
	}
	sum := summary{Attempted: l.attempted, Metrics: map[string]jsonMetric{}}
	emit := func(m metric, v value) {
		v.v = inReferenceTime(v.v, m.unit, l.scale)
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			l.fail("metric %s is %v", m.name, v.v)
			v.v = 0
		}
		fmt.Fprintf(stdout, "%s %s %s %s n=%d\n", w.name, m.name, strconv.FormatFloat(v.v, 'g', -1, 64), m.unit, v.n)
		sum.Metrics[m.name] = jsonMetric{v.v, m.unit}
	}
	if o.trace == 1 {
		for _, m := range perLayer {
			emit(m.metric, value{l.layer[m.name], len(l.lat)})
		}
	} else {
		vals := l.endToEndValues(setups)
		for _, m := range endToEnd {
			emit(m, vals[m.name])
		}
	}
	for _, f := range l.failures {
		fmt.Fprintf(stderr, "hilp-bench: %s: FAIL %s\n", w.name, f)
	}
	sum.Failed = l.failed
	sum.Correct = l.failed == 0 && l.attempted > 0
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "hilp-bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// measure sets the workload up setupReps times, runs the last set-up
// through the timed window, checks the results and, when traced, attributes
// the spans. The reference kernel runs before the set-ups and after the
// close.
func measure(ctx context.Context, w workload, o options, stderr io.Writer) (*ledger, []float64, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: o.seed, smoke: o.smoke, smokeUnits: w.smokeUnits, dir: dir}
	if o.trace == 1 {
		e.tr = newTracing()
	}

	// -smoke runs check behaviour, not speed, and skip the reference kernel.
	var before float64
	if !o.smoke {
		before = kernelSec()
	}
	b, setups, err := setUp(w, e)
	if err != nil {
		return nil, nil, err
	}

	l := &ledger{kernelBefore: before}
	runtime.GC()
	bud := budget{units: w.smokeUnits}
	if !o.smoke {
		bud = budget{deadline: time.Now().Add(time.Duration(o.seconds * float64(time.Second))), round: w.round}
	}
	a0 := heapAllocs()
	t0 := time.Now()
	b.run(ctx, bud, l)
	l.windowSec = time.Since(t0).Seconds()
	l.allocMiB = float64(heapAllocs()-a0) / (1 << 20)
	// Before the checks, whose extra solves are not the workload's.
	if l.rssMiB, err = peakRSSMiB(); err != nil {
		return nil, nil, errors.Join(err, b.close())
	}
	b.check(ctx, l)
	if e.tr != nil {
		st := attributeSpans(e.tr.t.Snapshot())
		b.layers(l, &st)
		st.record(l)
		l.setLayer("trace.ops_per_s", l.opsPerSec())
		if o.traceDir != "" {
			if err := e.tr.writeTrace(o.traceDir, w.name); err != nil {
				return nil, nil, errors.Join(err, b.close())
			}
		}
	}
	if err := b.close(); err != nil {
		return nil, nil, err
	}
	l.scale = 1
	if !o.smoke {
		l.kernelAfter = kernelSec()
		l.scale = 2 * referenceKernelSec / (l.kernelBefore + l.kernelAfter)
		fmt.Fprintf(stderr, "hilp-bench: %s: host ran at %.3g times reference speed (kernel %.1f µs before, %.1f µs after)\n",
			w.name, l.scale, l.kernelBefore*1e6, l.kernelAfter*1e6)
	}
	return l, setups, nil
}

// setUp sets the workload up setupReps times, closing all but the last set-up,
// and returns the set-up times.
func setUp(w workload, e *env) (bench, []float64, error) {
	var b bench
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		next, err := w.setup(e)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = next
	}
	return b, setups, nil
}

// runAll runs every workload in its own child process with GOMAXPROCS=2 —
// and, when tracing, a traced child after each — relaying their metric
// lines and ending with one JSON summary whose metrics are keyed
// <workload>.<metric>.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "hilp-bench: %v\n", err)
		return 1
	}
	total := summary{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range workloads {
		traces := []int{0}
		if o.trace == 1 {
			traces = append(traces, 1)
		}
		for _, tr := range traces {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(tr),
				"-smoke=" + strconv.FormatBool(o.smoke), "-workdir", o.workdir}
			if tr == 1 && o.traceDir != "" {
				args = append(args, "-trace-dir", o.traceDir)
			}
			s, err := runChild(exe, args, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "hilp-bench: %s: %v\n", w.name, err)
				total.Correct = false
				continue
			}
			total.Correct = total.Correct && s.Correct
			total.Attempted += s.Attempted
			total.Failed += s.Failed
			for name, m := range s.Metrics {
				total.Metrics[w.name+"."+name] = m
			}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "hilp-bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

// runChild runs one child, copying its metric lines to stdout and parsing
// its final JSON line.
func runChild(exe string, args []string, stdout, stderr io.Writer) (summary, error) {
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return summary{}, err
	}
	if err := cmd.Start(); err != nil {
		return summary{}, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	var s summary
	if err := json.Unmarshal([]byte(last), &s); err != nil {
		return summary{}, errors.Join(fmt.Errorf("no result line: %w", err), scanErr, waitErr)
	}
	if scanErr != nil {
		return s, scanErr
	}
	var exit *exec.ExitError
	if waitErr != nil && !errors.As(waitErr, &exit) {
		return s, waitErr
	}
	return s, nil
}
