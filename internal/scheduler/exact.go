package scheduler

import (
	"context"
	"math"

	"hilp/internal/obs"
)

// ExactConfig tunes the exact branch-and-bound search.
type ExactConfig struct {
	// NodeLimit caps the number of explored search nodes. 0 selects a
	// default. When the limit is hit the search returns the incumbent
	// without a proof of optimality.
	NodeLimit int
	// UpperBound primes the search with a known feasible makespan; 0 means
	// none. Nodes that cannot beat it are pruned.
	UpperBound int
	// Obs carries optional tracing/metrics sinks; nil disables them. Node
	// counts are recorded once at the end, so the search loop stays clean.
	Obs *obs.Context
}

// ExactResult reports the outcome of the exact search.
type ExactResult struct {
	Schedule Schedule
	// Found is true when the search produced a schedule better than the
	// priming UpperBound (or any schedule, when no bound was given).
	Found bool
	// Exhausted is true when the whole search tree was explored. If Found,
	// Schedule is optimal; if not Found but an UpperBound was supplied, that
	// bound is proven optimal.
	Exhausted bool
	Nodes     int
}

// SolveExact performs a depth-first branch-and-bound over serial-SGS
// placement decisions: at each node it picks an unscheduled task whose
// predecessors are all placed, tries every option, and places it at the
// earliest feasible start. Because serial SGS over all precedence-feasible
// activity lists and all option assignments reaches an optimal schedule for
// regular objectives, exhausting this tree proves optimality.
//
// The search is exponential and intended for small instances (the paper's
// running examples and unit-level certification); larger instances should use
// Anneal plus LowerBound, or the time-indexed MILP encoding.
//
// Cancelling ctx aborts the search as if the node limit had been hit: the
// incumbent (if any) is returned with Exhausted=false, so no optimality is
// claimed from a truncated tree.
func SolveExact(ctx context.Context, p *Problem, cfg ExactConfig) ExactResult {
	if cfg.NodeLimit == 0 {
		cfg.NodeLimit = 2_000_000
	}
	n := len(p.Tasks)
	g := newSGS(p)
	g.tl.reset()
	for i := range g.scheduled {
		g.scheduled[i] = false
	}

	best := Schedule{}
	bestMakespan := math.MaxInt
	if cfg.UpperBound > 0 {
		bestMakespan = cfg.UpperBound
	}
	foundBest := false

	tail := tails(p)

	starts := make([]int, n)
	options := make([]int, n)
	nodes := 0
	limitHit := false
	run := cfg.Obs.StartSolver(ctx, "exact-bb")
	run.Span().ArgInt("node_limit", cfg.NodeLimit)

	var dfs func(placed, currentMakespan int)
	dfs = func(placed, currentMakespan int) {
		if limitHit {
			return
		}
		nodes++
		if nodes > cfg.NodeLimit {
			limitHit = true
			return
		}
		// Poll ctx once every 256 nodes: each node is a handful of timeline
		// operations, so cancel latency stays in the microsecond range.
		if nodes&255 == 0 && ctx.Err() != nil {
			limitHit = true
			return
		}
		if placed == n {
			if currentMakespan < bestMakespan {
				bestMakespan = currentMakespan
				best = Schedule{Start: append([]int(nil), starts...), Option: append([]int(nil), options...), Makespan: currentMakespan}
				foundBest = true
				run.Incumbent(nodes, float64(bestMakespan))
			}
			return
		}
		// Lower bound on any completion from this node: every unscheduled
		// eligible-or-later task still needs ready+tail time.
		for i := 0; i < n; i++ {
			if g.scheduled[i] {
				continue
			}
			ready := 0
			for _, d := range p.Tasks[i].Deps {
				if g.scheduled[d.Task] {
					var e int
					switch d.Kind {
					case FinishStart:
						e = g.finish[d.Task] + d.Lag
					case StartStart:
						e = g.start[d.Task] + d.Lag
					}
					if e > ready {
						ready = e
					}
				}
			}
			if ready+tail[i] >= bestMakespan {
				return // prune: this task alone pushes past the incumbent
			}
		}

		for i := 0; i < n; i++ {
			if g.scheduled[i] {
				continue
			}
			eligible := true
			for _, d := range p.Tasks[i].Deps {
				if !g.scheduled[d.Task] {
					eligible = false
					break
				}
			}
			if !eligible {
				continue
			}
			ready := g.ready(i)
			for oi := range p.Tasks[i].Options {
				o := &p.Tasks[i].Options[oi]
				s := g.tl.earliestStart(o, ready, g.maxStart)
				if s < 0 {
					continue
				}
				finish := s + o.Duration
				if s+tail[i] >= bestMakespan {
					continue // cannot beat the incumbent via this placement
				}
				g.tl.place(o, s)
				g.scheduled[i] = true
				g.start[i], g.finish[i] = s, finish
				starts[i], options[i] = s, oi

				m := currentMakespan
				if finish > m {
					m = finish
				}
				dfs(placed+1, m)

				g.tl.remove(o, s)
				g.scheduled[i] = false
				if limitHit {
					return
				}
			}
		}
	}

	dfs(0, 0)
	cfg.Obs.Counter(obs.MExactNodes).Add(int64(nodes))
	run.Span().ArgInt("nodes", nodes).ArgInt("exhausted", boolToInt(!limitHit))
	if foundBest && !limitHit {
		// The tree was exhausted, so the incumbent is provably optimal.
		run.Certify(float64(bestMakespan), float64(bestMakespan), true)
	}
	run.End()

	return ExactResult{
		Schedule:  best,
		Found:     foundBest,
		Exhausted: !limitHit,
		Nodes:     nodes,
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
