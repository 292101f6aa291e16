package scheduler

import (
	"context"
	"fmt"
	"testing"

	"hilp/internal/obs"
)

// TestSolveEmitsEachFactOnce solves the Fig. 2 examples with a flight
// recorder and a subscribed bus attached and checks that every recorded fact
// reaches the bus exactly once: each event of the "solve" record as one
// "stage" event, each event of an inner solver run (anneal, tabu, exact-bb)
// as one "solver" event, and each certificate as one "certificate" event,
// all stamped with the request ID of the solve's context.
func TestSolveEmitsEachFactOnce(t *testing.T) {
	const req = "req-fact"
	for _, imp := range []string{"anneal", "tabu"} {
		for _, power := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/power=%v", imp, power), func(t *testing.T) {
				bus := obs.NewBus(4096)
				sub := bus.Subscribe()
				rec := obs.NewRecorder()
				ctx := obs.WithRequestID(context.Background(), req)
				// A gap target no heuristic meets sends unproven solves
				// through destructive lower bounding and the exact search.
				cfg := Config{Seed: 1, Improver: imp, GapTarget: 1e-9, Obs: &obs.Context{Recorder: rec, Bus: bus}}
				if _, err := Solve(ctx, exampleFig2(power), cfg); err != nil {
					t.Fatal(err)
				}
				bus.Close()

				want := map[string]int{}
				for _, r := range rec.Snapshot() {
					for _, e := range r.Events {
						if r.Solver == "solve" {
							want[fmt.Sprintf("stage %d %g", e.Iter, e.Value)]++
						} else {
							want[fmt.Sprintf("solver %s %s %d %g", r.Solver, e.Kind, e.Iter, e.Value)]++
						}
					}
					if c := r.Certificate; c != nil {
						want[fmt.Sprintf("solver %s certificate 0 %g", r.Solver, c.Incumbent)]++
					}
				}
				got := map[string]int{}
				for ev := range sub.C {
					if ev.Req != req {
						t.Errorf("bus event %+v lacks request ID %q", ev, req)
					}
					switch ev.Kind {
					case "stage":
						got[fmt.Sprintf("stage %d %g", ev.Iter, ev.Value)]++
					case "solver":
						got[fmt.Sprintf("solver %s %s %d %g", ev.Name, ev.Event, ev.Iter, ev.Value)]++
					default:
						t.Errorf("unexpected bus event %+v", ev)
					}
				}
				if sub.Dropped() != 0 {
					t.Fatalf("subscription dropped %d events", sub.Dropped())
				}
				for k, n := range want {
					if got[k] != n {
						t.Errorf("fact %q: %d bus events, want %d", k, got[k], n)
					}
				}
				for k, n := range got {
					if want[k] == 0 {
						t.Errorf("bus event %q (x%d) has no recorded fact", k, n)
					}
				}
			})
		}
	}
}
