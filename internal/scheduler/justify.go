package scheduler

import (
	"cmp"
	"slices"
)

// Double justification is a classic RCPSP schedule-improvement technique:
// right-justify every task (push it as late as the current makespan allows),
// then left-justify (pull everything back as early as possible). Each pass
// preserves feasibility; the left pass often discovers a strictly shorter
// makespan because right-justification frees resources early in the
// schedule. HILP applies it after the annealing search.

// Justify returns an improved (never worse) feasible schedule derived from s
// by one right-left justification pass. Option choices are preserved; only
// start times move.
func Justify(p *Problem, s Schedule) Schedule {
	right := rightJustify(p, s)
	left := leftJustify(p, right)
	if left.Makespan <= s.Makespan {
		return left
	}
	return s.Clone()
}

// rightJustify pushes every task as late as possible without exceeding the
// schedule's makespan, processing tasks in decreasing finish-time order so
// successors move before their predecessors.
func rightJustify(p *Problem, s Schedule) Schedule {
	n := len(p.Tasks)
	out := s.Clone()
	makespan := s.Makespan

	succ := p.Successors()
	// Order: decreasing finish time, ties by decreasing start.
	order := tasksBy(n, func(a, b int) int {
		return cmp.Or(cmp.Compare(s.Finish(p, b), s.Finish(p, a)), cmp.Compare(s.Start[b], s.Start[a]))
	})

	tl := newTimeline(p)
	tl.grow(makespan + 1)
	// Place all tasks at their current positions, then move one at a time.
	for i := 0; i < n; i++ {
		tl.place(&p.Tasks[i].Options[out.Option[i]], out.Start[i])
	}

	for _, i := range order {
		o := &p.Tasks[i].Options[out.Option[i]]
		// Deadline from successors (they have already been right-shifted).
		deadline := makespan - o.Duration
		for _, si := range succ[i] {
			for _, d := range p.Tasks[si].Deps {
				if d.Task != i {
					continue
				}
				var latest int
				switch d.Kind {
				case FinishStart:
					latest = out.Start[si] - d.Lag - o.Duration
				case StartStart:
					latest = out.Start[si] - d.Lag
				}
				if latest < deadline {
					deadline = latest
				}
			}
		}
		if deadline <= out.Start[i] {
			continue
		}
		tl.remove(o, out.Start[i])
		best := out.Start[i]
		// Scan from the deadline downward for the latest feasible start.
		for cand := deadline; cand > out.Start[i]; cand-- {
			if ok, _ := tl.fits(o, cand); ok {
				best = cand
				break
			}
		}
		tl.place(o, best)
		out.Start[i] = best
	}
	out.ComputeMakespan(p)
	return out
}

// leftJustify rebuilds the schedule with serial SGS using the right-justified
// start order as the activity list, which is the second half of double
// justification.
func leftJustify(p *Problem, s Schedule) Schedule {
	out, ok := newSGS(p).decode(byStart(s), s.Option)
	if !ok {
		return s.Clone()
	}
	return out
}

// byStart lists s's tasks by ascending start time, ties in task order.
func byStart(s Schedule) []int {
	return tasksBy(len(s.Start), func(a, b int) int { return cmp.Compare(s.Start[a], s.Start[b]) })
}

// tasksBy lists task indices 0..n-1 stably sorted by compare.
func tasksBy(n int, compare func(a, b int) int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, compare)
	return order
}
