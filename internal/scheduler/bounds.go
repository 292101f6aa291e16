package scheduler

import "math"

// LowerBound computes a proven lower bound on the optimal makespan as the
// maximum of several classic bounds. Combined with an upper bound from the
// search it certifies the optimality gap the paper's near-optimality
// criterion relies on (gap = (UB - LB) / UB <= 10%).
func LowerBound(p *Problem) int {
	return max(criticalPathBound(p), resourceEnergyBound(p), groupLoadBound(p))
}

// criticalPathBound is the longest dependency chain when every task takes
// its minimum duration and every lag is honored.
func criticalPathBound(p *Problem) int {
	bound := 0
	for i, e := range earliestStarts(p) {
		bound = max(bound, e+p.Tasks[i].MinDuration())
	}
	return bound
}

// earliestStarts is the dependency-driven earliest start per task, with
// every task at its minimum duration.
func earliestStarts(p *Problem) []int {
	est := make([]int, len(p.Tasks))
	for _, i := range p.TopoOrder() {
		ready := 0
		for _, d := range p.Tasks[i].Deps {
			var e int
			switch d.Kind {
			case FinishStart:
				e = est[d.Task] + p.Tasks[d.Task].MinDuration() + d.Lag
			case StartStart:
				e = est[d.Task] + d.Lag
			}
			if e > ready {
				ready = e
			}
		}
		est[i] = ready
	}
	return est
}

// resourceEnergyBound divides, per cumulative resource, the minimum total
// work (duration x demand, minimized over each task's options) by the
// capacity. With power as the resource this is the classic energy bound that
// makes severe power caps bite even when machines are plentiful.
func resourceEnergyBound(p *Problem) int {
	best := 0
	for r, res := range p.Resources {
		if res.Capacity <= 0 {
			continue
		}
		total := 0.0
		for _, t := range p.Tasks {
			min := math.Inf(1)
			for _, o := range t.Options {
				if w := float64(o.Duration) * o.Demand[r]; w < min {
					min = w
				}
			}
			if !math.IsInf(min, 1) {
				total += min
			}
		}
		if b := int(math.Ceil(total/res.Capacity - 1e-9)); b > best {
			best = b
		}
	}
	return best
}

// groupLoadBound considers, for each device group, the tasks that can only
// execute on clusters of that group: their minimum durations must serialize.
func groupLoadBound(p *Problem) int {
	numGroups := p.NumGroups()
	load := make([]int, numGroups)
	for _, t := range p.Tasks {
		g := -1
		single := true
		for _, o := range t.Options {
			og := p.ClusterGroup[o.Cluster]
			if g == -1 {
				g = og
			} else if og != g {
				single = false
				break
			}
		}
		if single && g >= 0 {
			load[g] += t.MinDuration()
		}
	}
	best := 0
	for _, l := range load {
		if l > best {
			best = l
		}
	}
	return best
}
