package scheduler

import "math/bits"

// timeline tracks group occupancy and cumulative resource usage over time so
// the schedule-generation scheme can test placements incrementally. Arrays
// grow on demand; the scheduling horizon is soft here.
type timeline struct {
	p         *Problem
	groupBusy [][]bool    // [group][step]
	usage     [][]float64 // [resource][step]
	length    int
	// hi is the largest end step placed since the last reset. Every step at
	// or past hi is clear, so reset only has to clear [0, hi). remove never
	// lowers it: a removal can leave floating-point residue behind.
	hi int
}

func newTimeline(p *Problem) *timeline {
	t := &timeline{p: p}
	t.groupBusy = make([][]bool, p.NumGroups())
	t.usage = make([][]float64, len(p.Resources))
	t.grow(p.Horizon + 1)
	return t
}

// grow extends all step arrays to at least n steps.
func (t *timeline) grow(n int) {
	if n <= t.length {
		return
	}
	for g := range t.groupBusy {
		t.groupBusy[g] = append(t.groupBusy[g], make([]bool, n-len(t.groupBusy[g]))...)
	}
	for r := range t.usage {
		t.usage[r] = append(t.usage[r], make([]float64, n-len(t.usage[r]))...)
	}
	t.length = n
}

// reset clears all occupancy without shrinking the arrays.
func (t *timeline) reset() {
	for _, b := range t.groupBusy {
		clear(b[:t.hi])
	}
	for _, u := range t.usage {
		clear(u[:t.hi])
	}
	t.hi = 0
}

// fits reports whether placing an option at start would violate the group
// unary constraint or any resource capacity. On failure it returns a
// conflicting step so the caller can jump past it. Each array is scanned
// from end-1 downward, so the step returned is the last conflict of the
// first array that has one: every start at or before it still covers it,
// and the jump skips the most starts the scan has proved infeasible.
func (t *timeline) fits(o *Option, start int) (bool, int) {
	end := start + o.Duration
	t.grow(end)
	busy := t.groupBusy[t.p.ClusterGroup[o.Cluster]]
	for s := end - 1; s >= start; s-- {
		if busy[s] {
			return false, s
		}
	}
	for r := range t.p.Resources {
		d := o.Demand[r]
		if d == 0 {
			continue
		}
		cap := t.p.Resources[r].Capacity
		u := t.usage[r]
		for s := end - 1; s >= start; s-- {
			if u[s]+d > cap+1e-9 {
				return false, s
			}
		}
	}
	return true, 0
}

// place commits an option at start.
func (t *timeline) place(o *Option, start int) {
	end := start + o.Duration
	t.grow(end)
	if end > t.hi {
		t.hi = end
	}
	busy := t.groupBusy[t.p.ClusterGroup[o.Cluster]]
	for s := start; s < end; s++ {
		busy[s] = true
	}
	for r := range t.p.Resources {
		d := o.Demand[r]
		if d == 0 {
			continue
		}
		u := t.usage[r]
		for s := start; s < end; s++ {
			u[s] += d
		}
	}
}

// remove undoes a placement.
func (t *timeline) remove(o *Option, start int) {
	end := start + o.Duration
	busy := t.groupBusy[t.p.ClusterGroup[o.Cluster]]
	for s := start; s < end; s++ {
		busy[s] = false
	}
	for r := range t.p.Resources {
		d := o.Demand[r]
		if d == 0 {
			continue
		}
		u := t.usage[r]
		for s := start; s < end; s++ {
			u[s] -= d
		}
	}
}

// earliestStart finds the earliest start >= ready where the option fits.
// maxStart bounds the search; -1 is returned if nothing fits by then.
func (t *timeline) earliestStart(o *Option, ready, maxStart int) int {
	s := ready
	for s <= maxStart {
		ok, conflict := t.fits(o, s)
		if ok {
			return s
		}
		s = conflict + 1
	}
	return -1
}

// sgs is a reusable serial schedule-generation scheme. Given an activity
// list (a task permutation) and per-task option choices, it builds the
// semi-active schedule that places each task, in list order (repaired to be
// precedence-feasible), at its earliest feasible start. Serial SGS over all
// activity lists and option assignments is known to reach an optimal schedule
// for regular objectives such as makespan, which makes it a sound decoding
// for both heuristics and the exact search.
type sgs struct {
	p         *Problem
	tl        *timeline
	scheduled []bool // placement flags for SolveExact's search
	start     []int
	finish    []int
	// maxStart is the hard cap on placement searches; hitting it means the
	// instance is so over-constrained that no placement exists even far
	// past the horizon (e.g. a demand exceeding a resource capacity
	// outright).
	maxStart int
	succ     [][]int // successors per task, once per dependency edge

	// Decode scratch, reused across calls.
	waiting  []int    // per task: dependency edges on unplaced predecessors
	pos      []int    // per task: first list position, or -1 if absent
	eligible []uint64 // bitset of list positions whose task may be placed
}

func newSGS(p *Problem) *sgs {
	n := len(p.Tasks)
	total := p.Horizon
	for _, t := range p.Tasks {
		total += t.MinDuration() + 1
	}
	return &sgs{
		p:         p,
		tl:        newTimeline(p),
		scheduled: make([]bool, n),
		start:     make([]int, n),
		finish:    make([]int, n),
		maxStart:  4*total + 64,
		succ:      p.Successors(),
		waiting:   make([]int, n),
		pos:       make([]int, n),
	}
}

// ready returns the earliest start permitted by task i's dependencies given
// the currently scheduled predecessors. All predecessors must be scheduled.
func (g *sgs) ready(i int) int {
	ready := 0
	for _, d := range g.p.Tasks[i].Deps {
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
	return ready
}

// decode builds a fresh schedule from an activity list and option choices;
// see decodeInto. It returns the zero Schedule when decoding fails.
func (g *sgs) decode(list []int, opts []int) (Schedule, bool) {
	n := len(g.p.Tasks)
	s := Schedule{Start: make([]int, n), Option: make([]int, n)}
	if !g.decodeInto(&s, list, opts) {
		return Schedule{}, false
	}
	return s, true
}

// decodeInto builds the schedule for an activity list and option choices
// into dst, reusing dst's slices, and allocates nothing once they and the
// timeline are large enough. The list need not be precedence-feasible:
// tasks whose predecessors are not yet scheduled are deferred, preserving
// relative order otherwise (standard activity-list repair). A task listed
// twice keeps its first position. It returns false, leaving dst undefined,
// if the list omits a task or some task cannot be placed within the hard
// bound, which indicates an infeasible option (demand above capacity).
//
// Canonical activity-list decoding places the first eligible task in list
// order, where eligible means every predecessor is placed. Placing a task
// only ever makes more tasks eligible, so the eligible list positions are
// kept in a bitset, fed by per-task counts of unplaced predecessor edges,
// and the lowest set bit is the task the canonical rescan would pick.
func (g *sgs) decodeInto(dst *Schedule, list []int, opts []int) bool {
	p := g.p
	n := len(p.Tasks)
	g.tl.reset()

	for i := range g.pos {
		g.pos[i] = -1
	}
	for idx, i := range list {
		if i >= 0 && g.pos[i] < 0 {
			g.pos[i] = idx
		}
	}
	words := (len(list) + 63) / 64
	if cap(g.eligible) < words {
		g.eligible = make([]uint64, words)
	}
	el := g.eligible[:words]
	clear(el)
	for i := range p.Tasks {
		g.waiting[i] = len(p.Tasks[i].Deps)
		if g.waiting[i] == 0 && g.pos[i] >= 0 {
			el[g.pos[i]/64] |= 1 << (g.pos[i] % 64)
		}
	}

	makespan := 0
	w := 0 // every word below w is zero
	for placed := 0; placed < n; placed++ {
		for w < len(el) && el[w] == 0 {
			w++
		}
		if w == len(el) {
			return false // a task is missing from the list
		}
		b := bits.TrailingZeros64(el[w])
		el[w] &^= 1 << b
		i := list[w*64+b]

		o := &p.Tasks[i].Options[opts[i]]
		s := g.tl.earliestStart(o, g.ready(i), g.maxStart)
		if s < 0 {
			return false
		}
		g.tl.place(o, s)
		g.start[i] = s
		g.finish[i] = s + o.Duration
		if g.finish[i] > makespan {
			makespan = g.finish[i]
		}
		for _, k := range g.succ[i] {
			g.waiting[k]--
			if g.waiting[k] == 0 && g.pos[k] >= 0 {
				q := g.pos[k]
				el[q/64] |= 1 << (q % 64)
				if q/64 < w {
					w = q / 64
				}
			}
		}
	}

	dst.Start = append(dst.Start[:0], g.start...)
	dst.Option = append(dst.Option[:0], opts[:n]...)
	dst.Makespan = makespan
	return true
}
