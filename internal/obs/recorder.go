package obs

import (
	"sync"
	"time"
)

// EventKind classifies one flight-recorder event.
type EventKind uint8

// Recorder event kinds.
const (
	// EvIncumbent is a new best feasible objective (makespan in steps for
	// the CP layers, objective value for the MILP layer).
	EvIncumbent EventKind = iota
	// EvBound is an improved proven lower bound.
	EvBound
	// EvTemperature is the annealer's temperature when an event fired.
	EvTemperature
	// EvRestart marks the start of a metaheuristic restart; Value is the
	// restart index.
	EvRestart
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvIncumbent:
		return "incumbent"
	case EvBound:
		return "bound"
	case EvTemperature:
		return "temperature"
	case EvRestart:
		return "restart"
	}
	return "unknown"
}

// Event is one timestamped flight-recorder observation.
type Event struct {
	Kind EventKind
	// TimeNs is nanoseconds since the recorder was created.
	TimeNs int64
	// Iter is the solver's own progress coordinate when the event fired:
	// iterations for the metaheuristics, explored nodes for the exact
	// searches, stage index for the layered solve. It is deterministic for a
	// fixed seed, unlike TimeNs, so convergence curves plot against it.
	Iter int
	// Value is the observation (makespan, bound, temperature, ...).
	Value float64
}

// Certificate is the final solution-quality claim of one solve: the incumbent
// objective, the proven bound, and whether optimality was proven.
type Certificate struct {
	Incumbent float64
	Bound     float64
	Proven    bool
}

// Gap returns the relative optimality gap (Incumbent - Bound) / Incumbent,
// clamped to zero for proven or degenerate certificates.
func (c Certificate) Gap() float64 {
	if c.Proven || c.Incumbent <= 0 || c.Bound >= c.Incumbent {
		return 0
	}
	return (c.Incumbent - c.Bound) / c.Incumbent
}

// solveRec is one recorded solver run. endNs stays -1 while open.
type solveRec struct {
	solver  string
	startNs int64
	endNs   int64
	events  []Event
	cert    *Certificate
}

// Recorder collects per-solve convergence events from the solver stack: the
// flight recorder behind run reports. Like Tracer it is safe for concurrent
// use (sweep workers record in parallel) and a nil *Recorder is a valid,
// fully disabled recorder. Solvers record through a SolverRun.
type Recorder struct {
	mu     sync.Mutex
	now    func() int64 // nanoseconds since recorder creation
	solves []solveRec
}

// NewRecorder returns a recorder stamping events with the wall clock.
func NewRecorder() *Recorder {
	start := time.Now()
	return &Recorder{now: func() int64 { return int64(time.Since(start)) }}
}

// NewRecorderWithClock returns a recorder using a caller-supplied monotonic
// clock returning nanoseconds. Tests inject a counting clock to make
// recordings byte-for-byte deterministic.
func NewRecorderWithClock(now func() int64) *Recorder {
	return &Recorder{now: now}
}

// begin opens a new solver run record and returns its index.
func (r *Recorder) begin(solver string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.solves = append(r.solves, solveRec{solver: solver, startNs: r.now(), endNs: -1})
	return len(r.solves) - 1
}

// SolverRun is the telemetry handle of one solver run (Context.StartSolver):
// it owns the run's span, its flight-recorder record and its bus binding.
// Solvers emit every fact once to the handle, which fans it out to the sinks
// bound at open time. The zero value is inert: every method is a no-op, so
// disabled telemetry costs only nil checks.
type SolverRun struct {
	span Span
	r    *Recorder
	idx  int
	// bus is set when the bus had live subscribers at open time; req is the
	// request ID every bus event of the run carries.
	bus  *Bus
	name string
	req  string
}

// Span is the run's span, for args and for nesting callees under it.
func (t SolverRun) Span() Span { return t.span }

// emit records one event and publishes it: as a Kind "stage" event named
// stage when stage is set, else as a Kind "solver" event of the run.
func (t SolverRun) emit(kind EventKind, stage string, iter int, value float64) {
	if t.r != nil {
		t.r.mu.Lock()
		rec := &t.r.solves[t.idx]
		rec.events = append(rec.events, Event{Kind: kind, TimeNs: t.r.now(), Iter: iter, Value: value})
		t.r.mu.Unlock()
	}
	if t.bus == nil {
		return
	}
	if stage != "" {
		t.bus.Publish(BusEvent{Kind: "stage", Name: stage, Req: t.req, Iter: iter, Value: value})
	} else {
		t.bus.Publish(BusEvent{Kind: "solver", Name: t.name, Event: kind.String(), Req: t.req, Iter: iter, Value: value})
	}
}

// Incumbent records a new best feasible objective at iteration iter.
func (t SolverRun) Incumbent(iter int, value float64) { t.emit(EvIncumbent, "", iter, value) }

// Bound records an improved proven lower bound at iteration iter.
func (t SolverRun) Bound(iter int, value float64) { t.emit(EvBound, "", iter, value) }

// Temperature records the annealing temperature at iteration iter.
func (t SolverRun) Temperature(iter int, value float64) { t.emit(EvTemperature, "", iter, value) }

// Restart marks the start of restart k at iteration iter.
func (t SolverRun) Restart(iter, k int) { t.emit(EvRestart, "", iter, float64(k)) }

// Stage records the outcome of a stage of a staged solve, an incumbent or a
// bound (kind) at stage index iter, and publishes it as a Kind "stage" event
// named stage.
func (t SolverRun) Stage(stage string, kind EventKind, iter int, value float64) {
	t.emit(kind, stage, iter, value)
}

// Certify attaches the final gap certificate to the run. The last call wins.
func (t SolverRun) Certify(incumbent, bound float64, proven bool) {
	cert := Certificate{Incumbent: incumbent, Bound: bound, Proven: proven}
	if t.r != nil {
		t.r.mu.Lock()
		c := cert
		t.r.solves[t.idx].cert = &c
		t.r.mu.Unlock()
	}
	if t.bus != nil {
		t.bus.Publish(BusEvent{Kind: "solver", Name: t.name, Event: "certificate", Req: t.req, Value: incumbent, Gap: cert.Gap()})
	}
}

// End closes the run's record and span. Ending an already-ended run is a
// no-op.
func (t SolverRun) End() {
	t.span.End()
	if t.r == nil {
		return
	}
	t.r.mu.Lock()
	if rec := &t.r.solves[t.idx]; rec.endNs < 0 {
		rec.endNs = t.r.now()
	}
	t.r.mu.Unlock()
}

// SolveRecord is a read-only copy of one recorded solver run.
type SolveRecord struct {
	Solver  string
	StartNs int64
	EndNs   int64 // -1 while open
	Events  []Event
	// Certificate is the final solution-quality claim, nil when the run was
	// not certified (inner improver runs, exhausted-by-caller searches).
	Certificate *Certificate
}

// Snapshot returns copies of all recorded solver runs in begin order.
func (r *Recorder) Snapshot() []SolveRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SolveRecord, len(r.solves))
	for i, s := range r.solves {
		rec := SolveRecord{
			Solver:  s.solver,
			StartNs: s.startNs,
			EndNs:   s.endNs,
			Events:  append([]Event(nil), s.events...),
		}
		if s.cert != nil {
			c := *s.cert
			rec.Certificate = &c
		}
		out[i] = rec
	}
	return out
}
