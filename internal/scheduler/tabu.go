package scheduler

import (
	"context"
	"math/rand"

	"hilp/internal/obs"
)

// TabuConfig tunes the tabu-search improver, an alternative to simulated
// annealing used by the ablation studies and available to callers who prefer
// a deterministic trajectory for a given seed.
type TabuConfig struct {
	// Iterations is the number of search steps. 0 selects a default scaled
	// to instance size.
	Iterations int
	// Tenure is how many iterations a reversed move stays forbidden. 0
	// selects a default of 2 x number of tasks.
	Tenure int
	// Neighborhood is how many candidate moves are sampled per step. 0
	// selects a default of 24.
	Neighborhood int
	// Seed drives candidate sampling deterministically.
	Seed int64
	// SeedList and SeedOpts, when both are task-count-length, inject one
	// extra starting candidate (a warm-start hint already mapped onto this
	// problem) considered alongside the heuristic portfolio.
	SeedList, SeedOpts []int
	// StopBelow, when positive, ends the search as soon as the best
	// makespan falls below it: after the heuristic portfolio, or on any new
	// incumbent. 0 runs the full budget.
	StopBelow int
	// Obs carries optional tracing/metrics sinks; nil disables them.
	Obs *obs.Context
}

func (c TabuConfig) withDefaults(p *Problem) TabuConfig {
	if c.Iterations == 0 {
		c.Iterations = 1000 + 150*len(p.Tasks)
	}
	if c.Tenure == 0 {
		c.Tenure = 2 * len(p.Tasks)
		if c.Tenure < 8 {
			c.Tenure = 8
		}
	}
	if c.Neighborhood == 0 {
		c.Neighborhood = 24
	}
	return c
}

// tabuMove identifies a move for the tabu list: either swapping the task at
// a list position (kind 0) or assigning an option to a task (kind 1).
type tabuMove struct {
	kind int
	a, b int
}

// apply makes the move on the search state.
func (m tabuMove) apply(list, opts []int) {
	if m.kind == 0 {
		list[m.a], list[m.b] = list[m.b], list[m.a]
	} else {
		opts[m.a] = m.b
	}
}

// undo reverses apply; old is the option the task held before an option
// move.
func (m tabuMove) undo(list, opts []int, old int) {
	if m.kind == 0 {
		list[m.a], list[m.b] = list[m.b], list[m.a]
	} else {
		opts[m.a] = old
	}
}

// TabuSearch improves on the heuristic portfolio with tabu search over the
// same (activity list, option assignment) state space the annealer uses. ok
// is false when no heuristic seed could be placed.
//
// Cancelling ctx stops the search promptly; the best schedule found so far
// is still returned. So does reaching cfg.StopBelow.
func TabuSearch(ctx context.Context, p *Problem, cfg TabuConfig) (Schedule, bool) {
	cfg = cfg.withDefaults(p)
	g := newSGS(p)

	octx := cfg.Obs
	run := octx.StartSolver(ctx, "tabu")
	defer run.End()
	tctx := octx.WithSpan(run.Span().ArgInt("iterations", cfg.Iterations))
	sgsCtr := octx.Counter(obs.MSGSSchedules)
	stepCtr := octx.Counter(obs.MTabuSteps)

	// Neighbourhood candidates are only compared by makespan, so they all
	// decode into scratch; the accepted move decodes into cur.
	n := len(p.Tasks)
	scratch := Schedule{Start: make([]int, n), Option: make([]int, n)}
	cur := Schedule{Start: make([]int, n), Option: make([]int, n)}

	best, list, opts, found := portfolio(tctx, g, p, &scratch, cfg.SeedList, cfg.SeedOpts)
	if !found {
		return Schedule{}, false
	}
	run.Incumbent(0, float64(best.Makespan))
	if n <= 1 || best.Makespan < cfg.StopBelow {
		return best, true
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	tabuUntil := map[tabuMove]int{}

	for it := 0; it < cfg.Iterations; it++ {
		if it&cancelCheckMask == 0 && ctx.Err() != nil {
			break
		}
		stepCtr.Inc()
		bestCand := -1
		bestSpan := -1
		var bestMove tabuMove

		for k := 0; k < cfg.Neighborhood; k++ {
			var move tabuMove
			old := 0
			if rng.Intn(2) == 0 {
				i := rng.Intn(n - 1)
				move = tabuMove{kind: 0, a: i, b: i + 1}
			} else {
				ti := rng.Intn(n)
				nOpts := len(p.Tasks[ti].Options)
				if nOpts <= 1 {
					continue
				}
				old = opts[ti]
				next := rng.Intn(nOpts)
				if next == old {
					next = (next + 1) % nOpts
				}
				move = tabuMove{kind: 1, a: ti, b: next}
			}
			// Tabu unless it would beat the global best (aspiration).
			move.apply(list, opts)
			ok := g.decodeInto(&scratch, list, opts)
			sgsCtr.Inc()
			move.undo(list, opts, old)
			if !ok {
				continue
			}
			if until, isTabu := tabuUntil[move]; isTabu && it < until && scratch.Makespan >= best.Makespan {
				continue
			}
			if bestCand == -1 || scratch.Makespan < bestSpan {
				bestCand = k
				bestSpan = scratch.Makespan
				bestMove = move
			}
		}
		if bestCand == -1 {
			continue
		}
		bestMove.apply(list, opts)
		ok := g.decodeInto(&cur, list, opts)
		sgsCtr.Inc()
		if !ok {
			continue
		}
		tabuUntil[bestMove] = it + cfg.Tenure
		if cur.Makespan < best.Makespan {
			best = cur.Clone()
			run.Incumbent(it+1, float64(best.Makespan))
			if best.Makespan < cfg.StopBelow {
				break
			}
		}
	}
	run.Span().ArgInt("best_makespan", best.Makespan)
	return best, true
}
