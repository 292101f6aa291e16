package scheduler

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"hilp/internal/obs"
)

// AnnealConfig tunes the simulated-annealing search over (activity list,
// option assignment) states.
type AnnealConfig struct {
	// Iterations is the number of proposed moves. 0 selects a default scaled
	// to instance size.
	Iterations int
	// Restarts is the number of independent annealing runs. 0 means 1.
	Restarts int
	// Seed seeds the deterministic random source.
	Seed int64
	// InitialTempFactor scales the initial temperature relative to the seed
	// makespan. 0 selects a default of 0.2.
	InitialTempFactor float64
	// SeedList and SeedOpts, when both are task-count-length, inject one
	// extra starting candidate (a warm-start hint already mapped onto this
	// problem) considered alongside the heuristic portfolio.
	SeedList, SeedOpts []int
	// StopBelow, when positive, ends the search as soon as the best
	// makespan falls below it: after the heuristic portfolio, or on any new
	// incumbent in any restart. 0 runs the full budget.
	StopBelow int
	// Obs carries optional tracing/metrics sinks; nil disables them.
	Obs *obs.Context
}

func (c AnnealConfig) withDefaults(p *Problem) AnnealConfig {
	if c.Iterations == 0 {
		c.Iterations = 2000 + 400*len(p.Tasks)
	}
	if c.Restarts == 0 {
		c.Restarts = 1
	}
	if c.InitialTempFactor == 0 {
		c.InitialTempFactor = 0.2
	}
	return c
}

// cancelCheckMask throttles ctx.Err() polling inside search loops: the
// context is consulted once every cancelCheckMask+1 iterations, keeping the
// uncancelled path essentially free while bounding cancel latency to a few
// dozen schedule decodes (well under the ~50 ms anytime contract).
const cancelCheckMask = 31

// Anneal improves on the heuristic portfolio with simulated annealing and
// returns the best schedule found. ok is false when even the heuristics
// could not place the tasks (an outright-infeasible option set).
//
// Cancelling ctx stops the search promptly; the best schedule found so far
// is still returned (the heuristic seeds alone guarantee one). So does
// reaching cfg.StopBelow.
func Anneal(ctx context.Context, p *Problem, cfg AnnealConfig) (Schedule, bool) {
	cfg = cfg.withDefaults(p)
	g := newSGS(p)

	octx := cfg.Obs
	run := octx.StartSolver(ctx, "anneal")
	defer run.End()
	actx := octx.WithSpan(run.Span().ArgInt("iterations", cfg.Iterations).ArgInt("restarts", cfg.Restarts))
	sgsCtr := octx.Counter(obs.MSGSSchedules)
	accCtr := octx.Counter(obs.MAnnealAccepted)
	rejCtr := octx.Counter(obs.MAnnealRejected)

	// Every decode writes into cur or cand; the search swaps them on an
	// accepted move, so the only copy made is best, on a new incumbent.
	n := len(p.Tasks)
	cur := Schedule{Start: make([]int, n), Option: make([]int, n)}
	cand := Schedule{Start: make([]int, n), Option: make([]int, n)}

	best, bestList, bestOpts, found := portfolio(actx, g, p, &cand, cfg.SeedList, cfg.SeedOpts)
	if !found {
		return Schedule{}, false
	}
	run.Incumbent(0, float64(best.Makespan))
	if n <= 1 || best.Makespan < cfg.StopBelow {
		return best, true
	}

	rng := rand.New(rand.NewSource(cfg.Seed))

	stopped := false
	for restart := 0; restart < cfg.Restarts && !stopped; restart++ {
		if ctx.Err() != nil {
			break
		}
		var rsp obs.Span
		if actx.Tracing() {
			rsp = actx.StartSpan(fmt.Sprintf("anneal-restart-%d", restart))
		}
		run.Restart(restart*cfg.Iterations, restart)
		list := append([]int(nil), bestList...)
		opts := append([]int(nil), bestOpts...)
		ok := g.decodeInto(&cur, list, opts)
		sgsCtr.Inc()
		if !ok {
			rsp.End()
			continue
		}
		temp := cfg.InitialTempFactor * float64(cur.Makespan+1)
		cooling := math.Pow(0.001/math.Max(temp, 1e-9), 1/float64(cfg.Iterations))

		for it := 0; it < cfg.Iterations; it++ {
			if it&cancelCheckMask == 0 && ctx.Err() != nil {
				break
			}
			// Propose a move.
			var undo func()
			switch rng.Intn(3) {
			case 0: // relocate a task within the activity list
				from := rng.Intn(n)
				to := rng.Intn(n)
				if from == to {
					continue
				}
				moved := list[from]
				copy(list[from:], list[from+1:])
				list[n-1] = 0
				copy(list[to+1:], list[to:n-1])
				list[to] = moved
				undo = func() {
					// Reverse: remove at `to`, insert at `from`.
					m := list[to]
					copy(list[to:], list[to+1:])
					list[n-1] = 0
					copy(list[from+1:], list[from:n-1])
					list[from] = m
				}
			case 1: // swap two adjacent tasks
				i := rng.Intn(n - 1)
				list[i], list[i+1] = list[i+1], list[i]
				undo = func() { list[i], list[i+1] = list[i+1], list[i] }
			default: // change one task's option
				ti := rng.Intn(n)
				nOpts := len(p.Tasks[ti].Options)
				if nOpts <= 1 {
					continue
				}
				old := opts[ti]
				next := rng.Intn(nOpts)
				if next == old {
					next = (next + 1) % nOpts
				}
				opts[ti] = next
				undo = func() { opts[ti] = old }
			}

			ok := g.decodeInto(&cand, list, opts)
			sgsCtr.Inc()
			accept := false
			if ok {
				delta := float64(cand.Makespan - cur.Makespan)
				if delta <= 0 || rng.Float64() < math.Exp(-delta/math.Max(temp, 1e-9)) {
					accept = true
				}
			}
			if accept {
				accCtr.Inc()
				cur, cand = cand, cur
				if cur.Makespan < best.Makespan {
					best = cur.Clone()
					bestList = append(bestList[:0], list...)
					bestOpts = append(bestOpts[:0], opts...)
					gi := restart*cfg.Iterations + it + 1
					run.Incumbent(gi, float64(best.Makespan))
					run.Temperature(gi, temp)
					if best.Makespan < cfg.StopBelow {
						stopped = true
						break
					}
				}
			} else {
				rejCtr.Inc()
				undo()
			}
			temp *= cooling
		}
		rsp.ArgInt("best_makespan", best.Makespan)
		rsp.End()
	}
	run.Span().ArgInt("best_makespan", best.Makespan)
	return best, true
}
