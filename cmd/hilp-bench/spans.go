package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hilp/internal/obs"
)

// A traced run records two kinds of spans in one obs.Tracer: the benchmark's
// own, named <layer>.<stage> after the public call they wrap (journal.append,
// wire.marshal, ...), and the program's, which it opens when handed the
// tracer through SolverConfig.Obs or server.Config.Obs (evaluate, solve,
// anneal, milp-bb, ...). The untraced run makes the same calls with a nil
// obs context.

// opSpan is the root span of one traced op.
const opSpan = "op"

// programLayer maps the program's span names onto layer metric names. Spans
// missing from it are the benchmark's, already named after their layer.
var programLayer = map[string]string{
	"evaluate":         "core.evaluate",
	"refine-iteration": "core.refine",
	"build-instance":   "core.build",
	"solve":            "scheduler.solve",
	"bounds":           "scheduler.bounds",
	"warmstart":        "scheduler.warmstart",
	"heuristics":       "scheduler.heuristics",
	"anneal":           "scheduler.anneal",
	"tabu":             "scheduler.anneal",
	"destructive-lb":   "scheduler.destructive_lb",
	"exact":            "scheduler.exact",
	"exact-bb":         "scheduler.exact",
	"milp-bb":          "milp.bb",
	"sweep":            "dse.sweep",
}

func layerOf(span string) string {
	if strings.HasPrefix(span, "anneal-restart-") {
		return "scheduler.anneal"
	}
	if l, ok := programLayer[span]; ok {
		return l
	}
	return span
}

// tracing records the traced run's spans.
type tracing struct {
	t *obs.Tracer
	c *obs.Context
}

func newTracing() *tracing {
	t := obs.NewTracer()
	return &tracing{t: t, c: &obs.Context{Tracer: t}}
}

// op opens an op's root span and returns the context its spans nest under;
// the workload passes that context to the program too. A nil tracing returns
// an inert span and a nil context, so the untraced run records nothing.
func (tr *tracing) op() (obs.Span, *obs.Context) {
	if tr == nil {
		return obs.Span{}, nil
	}
	sp := tr.c.StartSpan(opSpan)
	return sp, tr.c.WithSpan(sp)
}

// within runs fn inside a span named name under c.
func within(c *obs.Context, name string, fn func()) {
	sp := c.StartSpan(name)
	fn()
	sp.End()
}

// spanTimes is the traced run's wall time, attributed to layers, plus the
// counts the program's spans carry.
type spanTimes struct {
	// self is each layer's self time in seconds: its spans' durations minus
	// the durations of their children on the same track.
	self map[string]float64
	// ops is the summed duration of the op root spans.
	ops float64
	// roots is the summed duration of program spans that opened a track of
	// their own: the server's solves, which run inside its solve stage. Their
	// layers' shares break that stage down, in busy time, rather than add to
	// it; a batch solving two points at once is busy for longer than it
	// takes.
	roots float64

	annealMoves             float64 // iterations x restarts run
	dlbRuns, dlbRaised      int     // destructive bounds run, and those that raised the bound
	exactRuns, exactProved  int     // exact searches run, and those that exhausted the tree
	exactNodes              int
	bbRuns, bbNodes, pivots int // milp branch and bound
	bbVars                  int
}

// attributeSpans computes self times and counts. Spans of one track nest in
// time (obs.WellNested), so a span's parent is the innermost earlier span on
// its track that is still open when it starts.
func attributeSpans(recs []obs.SpanRecord) spanTimes {
	st := spanTimes{self: map[string]float64{}}
	child := make([]int64, len(recs))
	parent := make([]int, len(recs))
	boundsLB := map[int]float64{} // solve span -> its cheap lower bound
	stacks := map[int64][]int{}
	for i, r := range recs {
		open := stacks[r.TID]
		for len(open) > 0 {
			top := recs[open[len(open)-1]]
			if top.StartNs+top.DurNs > r.StartNs {
				break
			}
			open = open[:len(open)-1]
		}
		parent[i] = -1
		if len(open) > 0 {
			parent[i] = open[len(open)-1]
			child[parent[i]] += r.DurNs
		} else if r.Name != opSpan && r.Name != "sweep" {
			// A server batch's sweep span opens a track of its own while
			// its points' solves open others, so its duration contains
			// theirs; only the solves count as roots.
			st.roots += float64(r.DurNs) / 1e9
		}
		stacks[r.TID] = append(open, i)

		switch {
		case r.Name == "bounds" && parent[i] >= 0:
			boundsLB[parent[i]] = r.Args["lower_bound"]
		case r.Name == "destructive-lb":
			st.dlbRuns++
			if lb, ok := boundsLB[parent[i]]; ok && r.Args["lower_bound"] > lb {
				st.dlbRaised++
			}
		case r.Name == "exact-bb":
			st.exactRuns++
			st.exactNodes += int(r.Args["nodes"])
			st.exactProved += int(r.Args["exhausted"])
		case r.Name == "milp-bb":
			st.bbRuns++
			st.bbNodes += int(r.Args["nodes"])
			st.pivots += int(r.Args["pivots"])
			st.bbVars += int(r.Args["vars"])
		case strings.HasPrefix(r.Name, "anneal-restart-") && parent[i] >= 0:
			st.annealMoves += recs[parent[i]].Args["iterations"]
		}
	}
	for i, r := range recs {
		sec := float64(r.DurNs-child[i]) / 1e9
		if r.Name == opSpan {
			st.ops += float64(r.DurNs) / 1e9
		}
		st.self[layerOf(r.Name)] += sec
	}
	return st
}

// record turns the attributed times into the per-layer share metrics, the
// scheduler and MILP counts, and trace.unattributed_frac.
func (st spanTimes) record(l *ledger) {
	attributed := -st.roots
	for name, sec := range st.self {
		if name == opSpan {
			continue
		}
		attributed += sec
		l.setLayer(name+"_share", ratio(sec, st.ops))
	}
	l.setLayer("trace.unattributed_frac", ratio(st.ops-attributed, st.ops))
	l.setLayer("scheduler.anneal_moves_per_s", ratio(st.annealMoves, st.self["scheduler.anneal"]))
	l.setLayer("scheduler.destructive_lb_raised_frac", ratio(float64(st.dlbRaised), float64(st.dlbRuns)))
	l.setLayer("scheduler.exact_nodes", ratio(float64(st.exactNodes), float64(st.exactRuns)))
	l.setLayer("scheduler.exact_proved_frac", ratio(float64(st.exactProved), float64(st.exactRuns)))
	n := float64(st.bbRuns)
	l.setLayer("milp.nodes", ratio(float64(st.bbNodes), n))
	l.setLayer("milp.pivots", ratio(float64(st.pivots), n))
	l.setLayer("timeindexed.vars", ratio(float64(st.bbVars), n))
}

// writeTrace saves the spans as Chrome-trace JSON in dir/<workload>.json.
func (tr *tracing) writeTrace(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".json"))
	if err != nil {
		return err
	}
	if err := tr.t.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
