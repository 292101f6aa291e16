package scheduler

import (
	"math"
	"sort"

	"hilp/internal/obs"
)

// OptionPolicy selects one option per task.
type OptionPolicy int

// Option-selection policies used to seed the search.
const (
	// FastestOption picks the option with the shortest duration.
	FastestOption OptionPolicy = iota
	// LeastPowerOption picks the option with the smallest first-resource
	// demand, breaking ties by duration. With HILP's convention of power as
	// resource 0 this yields power-frugal seeds for constrained instances.
	LeastPowerOption
	// BalancedOption picks the option minimizing duration * (1 + demand0),
	// trading speed against the first resource.
	BalancedOption
)

// optionFeasible reports whether an option could ever be scheduled: its
// demand must not exceed any resource capacity outright.
func optionFeasible(p *Problem, o *Option) bool {
	if o.Duration == 0 {
		return true
	}
	for r, d := range o.Demand {
		if d > p.Resources[r].Capacity+1e-9 {
			return false
		}
	}
	return true
}

// chooseOptions applies a policy to every task, considering only options
// whose standalone demand fits within resource capacities (when any such
// option exists).
func chooseOptions(p *Problem, policy OptionPolicy) []int {
	opts := make([]int, len(p.Tasks))
	for i := range p.Tasks {
		t := &p.Tasks[i]
		best, bestKey := -1, math.Inf(1)
		anyFeasible := false
		for oi := range t.Options {
			if optionFeasible(p, &t.Options[oi]) {
				anyFeasible = true
				break
			}
		}
		for oi := range t.Options {
			o := &t.Options[oi]
			if anyFeasible && !optionFeasible(p, o) {
				continue
			}
			var key float64
			switch policy {
			case FastestOption:
				key = float64(o.Duration)
			case LeastPowerOption:
				d0 := 0.0
				if len(o.Demand) > 0 {
					d0 = o.Demand[0]
				}
				key = d0*1e6 + float64(o.Duration)
			case BalancedOption:
				d0 := 0.0
				if len(o.Demand) > 0 {
					d0 = o.Demand[0]
				}
				key = float64(o.Duration) * (1 + d0)
			}
			if key < bestKey {
				bestKey = key
				best = oi
			}
		}
		opts[i] = best
	}
	return opts
}

// tails returns, per task, the length of the longest chain of minimum
// durations from the task's start to the end of the project (including the
// task itself). It is the classic critical-path priority.
func tails(p *Problem) []int {
	order := p.TopoOrder()
	succ := p.Successors()
	tail := make([]int, len(p.Tasks))
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		best := 0
		for _, s := range succ[i] {
			// Find the dep record to honor lags and kinds.
			for _, d := range p.Tasks[s].Deps {
				if d.Task != i {
					continue
				}
				var via int
				switch d.Kind {
				case FinishStart:
					via = d.Lag + tail[s]
				case StartStart:
					// Successor may start Lag after our start; our own
					// duration still counts toward the tail independently.
					via = d.Lag + tail[s] - p.Tasks[i].MinDuration()
					if via < 0 {
						via = 0
					}
				}
				if via > best {
					best = via
				}
			}
		}
		tail[i] = p.Tasks[i].MinDuration() + best
	}
	return tail
}

// priorityList builds an activity list ordered by descending key with a
// stable tie-break on task index.
func priorityList(keys []float64) []int {
	list := make([]int, len(keys))
	for i := range list {
		list[i] = i
	}
	sort.SliceStable(list, func(a, b int) bool { return keys[list[a]] > keys[list[b]] })
	return list
}

// heuristicCandidates generates (activity list, options) seed pairs from a
// portfolio of priority rules and option policies.
func heuristicCandidates(p *Problem) []candidate {
	var cands []candidate
	tl := tails(p)
	cp := make([]float64, len(tl))
	for i, v := range tl {
		cp[i] = float64(v)
	}
	lpt := make([]float64, len(p.Tasks))
	for i, t := range p.Tasks {
		lpt[i] = float64(t.MinDuration())
	}
	flex := make([]float64, len(p.Tasks))
	for i, t := range p.Tasks {
		flex[i] = -float64(len(t.Options)) // fewer options first
	}

	rules := [][]float64{cp, lpt, flex}
	policies := []OptionPolicy{FastestOption, LeastPowerOption, BalancedOption}
	for _, rule := range rules {
		for _, pol := range policies {
			cands = append(cands, candidate{list: priorityList(rule), opts: chooseOptions(p, pol)})
		}
	}
	return cands
}

type candidate struct {
	list []int
	opts []int
}

// HeuristicSchedule runs the priority-rule portfolio through serial SGS and
// returns the best schedule found. ok is false when no candidate could be
// placed (an option demands more than a resource capacity).
func HeuristicSchedule(p *Problem) (Schedule, bool) {
	n := len(p.Tasks)
	best, _, _, ok := portfolio(nil, newSGS(p), p, &Schedule{Start: make([]int, n), Option: make([]int, n)}, nil, nil)
	return best, ok
}

// portfolio seeds a search: it decodes the priority-rule portfolio into
// scratch and returns the best schedule with its activity list and options;
// ok is false when no candidate could be placed. A warm-start seed (seedList
// and seedOpts, used when both are task-count long) competes with the
// portfolio; when it wins, the search starts from the donor's (repaired)
// schedule instead.
func portfolio(octx *obs.Context, g *sgs, p *Problem, scratch *Schedule, seedList, seedOpts []int) (best Schedule, list, opts []int, ok bool) {
	hsp := octx.StartSpan("heuristics")
	defer hsp.End()
	sgsCtr := octx.Counter(obs.MSGSSchedules)
	cands := heuristicCandidates(p)
	heuristics := len(cands)
	if n := len(p.Tasks); len(seedList) == n && len(seedOpts) == n {
		cands = append(cands, candidate{list: seedList, opts: seedOpts})
	}
	for i, c := range cands {
		decoded := g.decodeInto(scratch, c.list, c.opts)
		sgsCtr.Inc()
		if decoded && (!ok || scratch.Makespan < best.Makespan) {
			if i == heuristics {
				octx.Counter(obs.MSweepWarmImproved).Inc()
			}
			best, list, opts, ok = scratch.Clone(), append(list[:0], c.list...), append(opts[:0], c.opts...), true
		}
	}
	if ok {
		hsp.ArgInt("seeds", heuristics).ArgInt("best_makespan", best.Makespan)
	}
	return best, list, opts, ok
}
