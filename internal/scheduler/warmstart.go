package scheduler

// WarmStart is a solver hint carrying a donor schedule in a
// problem-portable form: the donor's task order (ascending start time) and
// the option label the donor chose per task. Task indexing must agree
// between donor and recipient — HILP instances built from the same workload
// have identical task lists at every spec and resolution — while option
// indices do not (a 4-core SoC has more CPU options than a 1-core one), so
// options travel by label ("cpu0", "cpu-x4", "gpu@765MHz", "dsa-LUD") and
// are remapped onto the recipient. Labels absent on the recipient fall back
// to the task's fastest feasible option; durations and demands are always
// the recipient's own, so the decoded seed is feasible by construction (the
// serial SGS repairs precedence and placement). A hint that does not fit
// the problem at all (different task count, corrupt order) is ignored.
type WarmStart struct {
	// Order is the donor's activity list: a permutation of task indices in
	// ascending donor start time.
	Order []int
	// Labels is the donor's option label per task (indexed by task, not by
	// list position); "" lets the recipient pick.
	Labels []string
}

// WarmStartOf extracts a warm-start hint from a schedule of p, for seeding
// a related instance's search (a neighboring spec, or the next refinement
// of the same spec).
func WarmStartOf(p *Problem, s Schedule) *WarmStart {
	n := len(p.Tasks)
	if len(s.Start) != n || len(s.Option) != n {
		return nil
	}
	ws := &WarmStart{Order: byStart(s), Labels: make([]string, n)}
	for i := 0; i < n; i++ {
		if oi := s.Option[i]; oi >= 0 && oi < len(p.Tasks[i].Options) {
			ws.Labels[i] = p.Tasks[i].Options[oi].Label
		}
	}
	return ws
}

// seed maps the hint onto p as an (activity list, option assignment) pair
// ready for SGS decoding. ok is false when the hint does not fit p: a
// different task count or an Order that is not a permutation.
func (ws *WarmStart) seed(p *Problem) (candidate, bool) {
	n := len(p.Tasks)
	if ws == nil || len(ws.Order) != n {
		return candidate{}, false
	}
	seen := make([]bool, n)
	for _, t := range ws.Order {
		if t < 0 || t >= n || seen[t] {
			return candidate{}, false
		}
		seen[t] = true
	}
	opts := make([]int, n)
	for i := range p.Tasks {
		opts[i] = -1
		if len(ws.Labels) == n && ws.Labels[i] != "" {
			for oi := range p.Tasks[i].Options {
				o := &p.Tasks[i].Options[oi]
				if o.Label == ws.Labels[i] && optionFeasible(p, o) {
					opts[i] = oi
					break
				}
			}
		}
		if opts[i] < 0 {
			opts[i] = fastestFeasibleOption(p, i)
			if opts[i] < 0 {
				return candidate{}, false
			}
		}
	}
	return candidate{list: append([]int(nil), ws.Order...), opts: opts}, true
}

// fastestFeasibleOption picks task i's shortest option whose standalone
// demand fits within resource capacities, or the shortest option outright
// when none fits (the decode will then fail, matching chooseOptions'
// convention). -1 only for a task with no options at all.
func fastestFeasibleOption(p *Problem, i int) int {
	t := &p.Tasks[i]
	anyFeasible := false
	for oi := range t.Options {
		if optionFeasible(p, &t.Options[oi]) {
			anyFeasible = true
			break
		}
	}
	best := -1
	for oi := range t.Options {
		o := &t.Options[oi]
		if anyFeasible && !optionFeasible(p, o) {
			continue
		}
		if best < 0 || o.Duration < t.Options[best].Duration {
			best = oi
		}
	}
	return best
}
