package obs

import (
	"context"
	"math"
	"sync"
	"testing"
)

// startRun opens a solver run recording into r alone.
func startRun(r *Recorder, name string) SolverRun {
	return (&Context{Recorder: r}).StartSolver(context.Background(), name)
}

// countingClock returns a deterministic monotonic clock ticking once per call.
func countingClock() func() int64 {
	var t int64
	return func() int64 {
		t++
		return t
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	tr := startRun(r, "anneal")
	if tr.r != nil || tr.bus != nil || tr.span.Active() {
		t.Fatal("nil recorder returned an active run")
	}
	tr.Incumbent(1, 10)
	tr.Bound(1, 5)
	tr.Temperature(1, 0.5)
	tr.Restart(0, 0)
	tr.Stage("bounds", EvBound, 0, 5)
	tr.Certify(10, 5, false)
	tr.End()
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", got)
	}

	var c *Context
	if c.StartSolver(context.Background(), "x") != (SolverRun{}) {
		t.Fatal("nil context returned an active run")
	}
	if (&Context{Bus: NewBus(1)}).StartSolver(context.Background(), "x").bus != nil {
		t.Fatal("a bus without subscribers was bound to the run")
	}
}

func TestRecorderRecordsEvents(t *testing.T) {
	r := NewRecorderWithClock(countingClock())
	tr := startRun(r, "anneal")
	tr.Incumbent(0, 20)
	tr.Restart(0, 0)
	tr.Incumbent(7, 15)
	tr.Temperature(7, 1.25)
	tr.Certify(15, 12, false)
	tr.End()

	recs := r.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Solver != "anneal" {
		t.Errorf("solver = %q", rec.Solver)
	}
	if rec.StartNs <= 0 || rec.EndNs <= rec.StartNs {
		t.Errorf("bad interval [%d, %d]", rec.StartNs, rec.EndNs)
	}
	wantKinds := []EventKind{EvIncumbent, EvRestart, EvIncumbent, EvTemperature}
	if len(rec.Events) != len(wantKinds) {
		t.Fatalf("%d events, want %d", len(rec.Events), len(wantKinds))
	}
	for i, k := range wantKinds {
		e := rec.Events[i]
		if e.Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, e.Kind, k)
		}
		if e.TimeNs <= 0 {
			t.Errorf("event %d has no timestamp", i)
		}
	}
	if rec.Events[2].Iter != 7 || rec.Events[2].Value != 15 {
		t.Errorf("incumbent event = %+v", rec.Events[2])
	}
	if rec.Certificate == nil || rec.Certificate.Incumbent != 15 || rec.Certificate.Bound != 12 || rec.Certificate.Proven {
		t.Errorf("certificate = %+v", rec.Certificate)
	}
	if g := rec.Certificate.Gap(); math.Abs(g-0.2) > 1e-12 {
		t.Errorf("gap = %g, want 0.2", g)
	}
}

func TestCertificateGap(t *testing.T) {
	cases := []struct {
		cert Certificate
		want float64
	}{
		{Certificate{Incumbent: 10, Bound: 8}, 0.2},
		{Certificate{Incumbent: 10, Bound: 10}, 0},
		{Certificate{Incumbent: 10, Bound: 12}, 0},
		{Certificate{Incumbent: 0, Bound: 0}, 0},
		{Certificate{Incumbent: 10, Bound: 2, Proven: true}, 0},
	}
	for _, c := range cases {
		if g := c.cert.Gap(); math.Abs(g-c.want) > 1e-12 {
			t.Errorf("Gap(%+v) = %g, want %g", c.cert, g, c.want)
		}
	}
}

func TestRecorderEndIdempotent(t *testing.T) {
	r := NewRecorderWithClock(countingClock())
	tr := startRun(r, "solve")
	tr.End()
	end := r.Snapshot()[0].EndNs
	tr.End()
	if again := r.Snapshot()[0].EndNs; again != end {
		t.Errorf("second End moved the end time: %d -> %d", end, again)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := startRun(r, "solve")
			for i := 0; i < 100; i++ {
				tr.Incumbent(i, float64(100-i))
			}
			tr.Certify(1, 1, true)
			tr.End()
		}(w)
	}
	wg.Wait()
	recs := r.Snapshot()
	if len(recs) != workers {
		t.Fatalf("%d records, want %d", len(recs), workers)
	}
	for _, rec := range recs {
		if len(rec.Events) != 100 || rec.Certificate == nil || rec.EndNs < 0 {
			t.Errorf("record %s: %d events, cert %v, end %d", rec.Solver, len(rec.Events), rec.Certificate, rec.EndNs)
		}
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRecorderWithClock(countingClock())
	tr := startRun(r, "solve")
	tr.Incumbent(0, 10)
	tr.Certify(10, 10, true)
	recs := r.Snapshot()
	recs[0].Events[0].Value = -1
	recs[0].Certificate.Incumbent = -1
	fresh := r.Snapshot()
	if fresh[0].Events[0].Value != 10 || fresh[0].Certificate.Incumbent != 10 {
		t.Error("snapshot shares memory with the recorder")
	}
}
