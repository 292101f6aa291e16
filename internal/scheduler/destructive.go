package scheduler

import (
	"context"
	"math"
	"sort"
)

// Destructive lower bounding: instead of bounding the optimum directly,
// pick a candidate makespan T and try to *destroy* it - prove that no
// feasible schedule of length <= T exists. The largest destroyed T plus one
// is a valid lower bound. Destruction tests use per-task time windows
// [earliest start, latest start] induced by T:
//
//   - window consistency (a task no longer fits),
//   - interval work overload per cumulative resource, counting each task's
//     unavoidable work inside an interval (a standard energetic-reasoning
//     relaxation),
//   - interval load overload per unary device group for tasks that can only
//     run on that group.
//
// Binary search over T converts destruction into the tightest such bound.

// DestructiveLowerBound returns a lower bound on the optimal makespan, at
// least as strong as LowerBound. ub must be the makespan of a known feasible
// schedule (the search space is [LowerBound, ub]). The bound's validity does
// not rely on the destruction test being monotone in T: it is derived only
// from T values the test actually destroyed.
//
// Cancelling ctx stops the binary search between destruction probes; the
// strongest bound derived so far is returned (every destroyed T remains a
// valid certificate regardless of where the search stopped).
func DestructiveLowerBound(ctx context.Context, p *Problem, ub int) int {
	lb := LowerBound(p)
	if lb >= ub {
		return lb
	}
	best := lb
	lo, hi := lb, ub
	for lo < hi {
		if ctx.Err() != nil {
			break
		}
		mid := (lo + hi) / 2
		if destroyed(p, mid) {
			if mid+1 > best {
				best = mid + 1
			}
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return best
}

// destroyed reports whether no schedule with makespan <= T can exist.
func destroyed(p *Problem, T int) bool {
	n := len(p.Tasks)
	est := earliestStarts(p)
	lst, ok := latestStarts(p, T)
	if !ok {
		return true // some task cannot fit at all
	}
	for i := 0; i < n; i++ {
		if est[i] > lst[i] {
			return true
		}
	}
	// Viable options per task under deadline T: an option whose duration
	// cannot fit between the task's earliest start and T is unusable. This
	// is what makes the bound bite on HILP instances: at tight T the slow
	// CPU fallback of a compute phase no longer fits, forcing the phase
	// onto its accelerator group.
	viable := make([][]bool, n)
	for i := 0; i < n; i++ {
		viable[i] = make([]bool, len(p.Tasks[i].Options))
		any := false
		for oi := range p.Tasks[i].Options {
			o := &p.Tasks[i].Options[oi]
			if est[i]+o.Duration <= T && optionFeasible(p, o) {
				viable[i][oi] = true
				any = true
			}
		}
		if !any {
			return true
		}
	}
	if resourceOverload(p, est, lst, viable, T) {
		return true
	}
	return groupOverload(p, est, lst, viable, T)
}

// latestStarts computes, for deadline T, the latest start of each task using
// minimum durations, propagating backward through the dependency graph. ok
// is false when a task cannot complete by T at all.
func latestStarts(p *Problem, T int) ([]int, bool) {
	n := len(p.Tasks)
	order := p.TopoOrder()
	lst := make([]int, n)
	for i := 0; i < n; i++ {
		lst[i] = T - p.Tasks[i].MinDuration()
		if lst[i] < 0 {
			return nil, false
		}
	}
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		for _, d := range p.Tasks[i].Deps {
			pred := d.Task
			var latest int
			switch d.Kind {
			case FinishStart:
				latest = lst[i] - d.Lag - p.Tasks[pred].MinDuration()
			case StartStart:
				latest = lst[i] - d.Lag
			}
			if latest < lst[pred] {
				lst[pred] = latest
				if lst[pred] < 0 {
					return nil, false
				}
			}
		}
	}
	return lst, true
}

// intervalEndpoints collects candidate interval boundaries from window
// endpoints, clamped to [0, T].
func intervalEndpoints(p *Problem, est, lst []int, T int) []int {
	seen := map[int]bool{0: true, T: true}
	for i := range p.Tasks {
		d := p.Tasks[i].MinDuration()
		for _, v := range []int{est[i], est[i] + d, lst[i], lst[i] + d} {
			if v >= 0 && v <= T {
				seen[v] = true
			}
		}
	}
	points := make([]int, 0, len(seen))
	for v := range seen {
		points = append(points, v)
	}
	sort.Ints(points)
	// Cap the quadratic interval enumeration on large instances.
	const maxPoints = 48
	if len(points) > maxPoints {
		stride := (len(points) + maxPoints - 1) / maxPoints
		kept := points[:0]
		for i := 0; i < len(points); i += stride {
			kept = append(kept, points[i])
		}
		if kept[len(kept)-1] != T {
			kept = append(kept, T)
		}
		points = kept
	}
	return points
}

// mandatoryWork returns the amount of task i's execution that must overlap
// [a, b) in any schedule meeting the windows, assuming duration dur: the
// left-shifted and right-shifted placements both bound the overlap from
// below.
func mandatoryWork(est, lst, dur, a, b int) int {
	if b <= a || dur == 0 {
		return 0
	}
	left := overlap(est, est+dur, a, b)  // left-shifted placement
	right := overlap(lst, lst+dur, a, b) // right-shifted placement
	if left < right {
		return left
	}
	return right
}

func overlap(s, e, a, b int) int {
	lo := s
	if a > lo {
		lo = a
	}
	hi := e
	if b < hi {
		hi = b
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// resourceOverload applies energetic reasoning per cumulative resource: if
// the sum of unavoidable work-in-interval (times the minimum demand over
// options) exceeds capacity x length for some interval, T is destroyed.
func resourceOverload(p *Problem, est, lst []int, viable [][]bool, T int) bool {
	points := intervalEndpoints(p, est, lst, T)
	for r, res := range p.Resources {
		if math.IsInf(res.Capacity, 1) || res.Capacity <= 0 {
			continue
		}
		for ai := 0; ai < len(points); ai++ {
			for bi := ai + 1; bi < len(points); bi++ {
				a, b := points[ai], points[bi]
				budget := res.Capacity * float64(b-a)
				total := 0.0
				for i := range p.Tasks {
					// Minimum over viable options of demand x mandatory
					// overlap.
					minWork := math.Inf(1)
					for oi, o := range p.Tasks[i].Options {
						if !viable[i][oi] {
							continue
						}
						w := float64(mandatoryWork(est[i], lst[i], o.Duration, a, b)) * o.Demand[r]
						if w < minWork {
							minWork = w
						}
					}
					if !math.IsInf(minWork, 1) {
						total += minWork
					}
					if total > budget+1e-6 {
						return true
					}
				}
			}
		}
	}
	return false
}

// groupOverload applies interval load reasoning per unary device group for
// tasks forced onto one group: their unavoidable in-interval durations must
// fit in the interval.
func groupOverload(p *Problem, est, lst []int, viable [][]bool, T int) bool {
	numGroups := p.NumGroups()
	forced := make([]int, len(p.Tasks)) // group index or -1
	for i := range p.Tasks {
		forced[i] = -1
		g := -1
		single := true
		for oi, o := range p.Tasks[i].Options {
			if !viable[i][oi] {
				continue
			}
			og := p.ClusterGroup[o.Cluster]
			if g == -1 {
				g = og
			} else if og != g {
				single = false
				break
			}
		}
		if single {
			forced[i] = g
		}
	}
	points := intervalEndpoints(p, est, lst, T)
	for g := 0; g < numGroups; g++ {
		for ai := 0; ai < len(points); ai++ {
			for bi := ai + 1; bi < len(points); bi++ {
				a, b := points[ai], points[bi]
				total := 0
				for i := range p.Tasks {
					if forced[i] != g {
						continue
					}
					// Mandatory overlap with the shortest viable option on
					// the group.
					minWork := math.MaxInt
					for oi, o := range p.Tasks[i].Options {
						if !viable[i][oi] {
							continue
						}
						if w := mandatoryWork(est[i], lst[i], o.Duration, a, b); w < minWork {
							minWork = w
						}
					}
					if minWork != math.MaxInt {
						total += minWork
					}
					if total > b-a {
						return true
					}
				}
			}
		}
	}
	return false
}
