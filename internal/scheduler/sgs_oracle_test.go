package scheduler

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refTimeline, refSGS and referenceDecode are the serial SGS decoder as it
// was before decodeInto: forward conflict scans, a full timeline reset, and a
// rescan of the activity list from position 0 after every placement. They
// are kept only as a differential oracle for the fast decoder, which must
// return the byte-identical schedule.
type refTimeline struct {
	p         *Problem
	groupBusy [][]bool
	usage     [][]float64
	length    int
}

func newRefTimeline(p *Problem) *refTimeline {
	t := &refTimeline{p: p}
	t.groupBusy = make([][]bool, p.NumGroups())
	t.usage = make([][]float64, len(p.Resources))
	t.grow(p.Horizon + 1)
	return t
}

func (t *refTimeline) grow(n int) {
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

func (t *refTimeline) reset() {
	for g := range t.groupBusy {
		b := t.groupBusy[g]
		for i := range b {
			b[i] = false
		}
	}
	for r := range t.usage {
		u := t.usage[r]
		for i := range u {
			u[i] = 0
		}
	}
}

func (t *refTimeline) fits(o *Option, start int) (bool, int) {
	end := start + o.Duration
	t.grow(end)
	g := t.p.ClusterGroup[o.Cluster]
	busy := t.groupBusy[g]
	for s := start; s < end; s++ {
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
		for s := start; s < end; s++ {
			if u[s]+d > cap+1e-9 {
				return false, s
			}
		}
	}
	return true, 0
}

func (t *refTimeline) place(o *Option, start int) {
	end := start + o.Duration
	t.grow(end)
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

func (t *refTimeline) earliestStart(o *Option, ready, maxStart int) int {
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

type refSGS struct {
	p         *Problem
	tl        *refTimeline
	scheduled []bool
	start     []int
	finish    []int
}

func (g *refSGS) maxStartBound() int {
	total := g.p.Horizon
	for _, t := range g.p.Tasks {
		total += t.MinDuration() + 1
	}
	return 4*total + 64
}

func (g *refSGS) ready(i int) int {
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

func (g *refSGS) decode(list []int, opts []int) (Schedule, bool) {
	g.tl.reset()
	for i := range g.scheduled {
		g.scheduled[i] = false
	}
	maxStart := g.maxStartBound()

	n := len(g.p.Tasks)
	placed := 0
	pending := make([]int, len(list))
	copy(pending, list)

	for placed < n {
		advanced := false
		for idx := 0; idx < len(pending); idx++ {
			i := pending[idx]
			if i < 0 || g.scheduled[i] {
				continue
			}
			allPreds := true
			for _, d := range g.p.Tasks[i].Deps {
				if !g.scheduled[d.Task] {
					allPreds = false
					break
				}
			}
			if !allPreds {
				continue
			}
			o := &g.p.Tasks[i].Options[opts[i]]
			s := g.tl.earliestStart(o, g.ready(i), maxStart)
			if s < 0 {
				return Schedule{}, false
			}
			g.tl.place(o, s)
			g.start[i] = s
			g.finish[i] = s + o.Duration
			g.scheduled[i] = true
			pending[idx] = -1
			placed++
			advanced = true
			break
		}
		if !advanced {
			return Schedule{}, false
		}
	}

	sched := Schedule{Start: make([]int, n), Option: make([]int, n)}
	copy(sched.Start, g.start)
	copy(sched.Option, opts)
	sched.ComputeMakespan(g.p)
	return sched, true
}

// referenceDecode decodes with a fresh reference SGS.
func referenceDecode(p *Problem, list, opts []int) (Schedule, bool) {
	n := len(p.Tasks)
	g := &refSGS{p: p, tl: newRefTimeline(p), scheduled: make([]bool, n), start: make([]int, n), finish: make([]int, n)}
	return g.decode(list, opts)
}

// referenceAnneal is Anneal's search, without instrumentation, driven by
// referenceDecode.
func referenceAnneal(p *Problem, cfg AnnealConfig) (Schedule, bool) {
	cfg = cfg.withDefaults(p)
	var best Schedule
	var bestList, bestOpts []int
	found := false
	for _, c := range heuristicCandidates(p) {
		s, ok := referenceDecode(p, c.list, c.opts)
		if !ok {
			continue
		}
		if !found || s.Makespan < best.Makespan {
			best = s
			bestList = append([]int(nil), c.list...)
			bestOpts = append([]int(nil), c.opts...)
			found = true
		}
	}
	if len(cfg.SeedList) == len(p.Tasks) && len(cfg.SeedOpts) == len(p.Tasks) {
		if s, ok := referenceDecode(p, cfg.SeedList, cfg.SeedOpts); ok {
			if !found || s.Makespan < best.Makespan {
				best = s
				bestList = append(bestList[:0], cfg.SeedList...)
				bestOpts = append(bestOpts[:0], cfg.SeedOpts...)
				found = true
			}
		}
	}
	if !found {
		return Schedule{}, false
	}
	if len(p.Tasks) <= 1 {
		return best, true
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := len(p.Tasks)
	for restart := 0; restart < cfg.Restarts; restart++ {
		list := append([]int(nil), bestList...)
		opts := append([]int(nil), bestOpts...)
		cur, ok := referenceDecode(p, list, opts)
		if !ok {
			continue
		}
		temp := cfg.InitialTempFactor * float64(cur.Makespan+1)
		cooling := math.Pow(0.001/math.Max(temp, 1e-9), 1/float64(cfg.Iterations))
		for it := 0; it < cfg.Iterations; it++ {
			var undo func()
			switch rng.Intn(3) {
			case 0:
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
					m := list[to]
					copy(list[to:], list[to+1:])
					list[n-1] = 0
					copy(list[from+1:], list[from:n-1])
					list[from] = m
				}
			case 1:
				i := rng.Intn(n - 1)
				list[i], list[i+1] = list[i+1], list[i]
				undo = func() { list[i], list[i+1] = list[i+1], list[i] }
			default:
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
			cand, ok := referenceDecode(p, list, opts)
			accept := false
			if ok {
				delta := float64(cand.Makespan - cur.Makespan)
				if delta <= 0 || rng.Float64() < math.Exp(-delta/math.Max(temp, 1e-9)) {
					accept = true
				}
			}
			if accept {
				cur = cand
				if cur.Makespan < best.Makespan {
					best = cur.Clone()
					bestList = append(bestList[:0], list...)
					bestOpts = append(bestOpts[:0], opts...)
				}
			} else {
				undo()
			}
			temp *= cooling
		}
	}
	return best, true
}

// referenceTabu is TabuSearch's search, without instrumentation, driven by
// referenceDecode.
func referenceTabu(p *Problem, cfg TabuConfig) (Schedule, bool) {
	cfg = cfg.withDefaults(p)
	var best Schedule
	var list, opts []int
	found := false
	for _, c := range heuristicCandidates(p) {
		s, ok := referenceDecode(p, c.list, c.opts)
		if !ok {
			continue
		}
		if !found || s.Makespan < best.Makespan {
			best = s
			list = append(list[:0], c.list...)
			opts = append(opts[:0], c.opts...)
			found = true
		}
	}
	if len(cfg.SeedList) == len(p.Tasks) && len(cfg.SeedOpts) == len(p.Tasks) {
		if s, ok := referenceDecode(p, cfg.SeedList, cfg.SeedOpts); ok {
			if !found || s.Makespan < best.Makespan {
				best = s
				list = append(list[:0], cfg.SeedList...)
				opts = append(opts[:0], cfg.SeedOpts...)
				found = true
			}
		}
	}
	if !found {
		return Schedule{}, false
	}
	n := len(p.Tasks)
	if n <= 1 {
		return best, true
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tabuUntil := map[tabuMove]int{}
	for it := 0; it < cfg.Iterations; it++ {
		type cand struct {
			move  tabuMove
			apply func()
			undo  func()
		}
		bestCand := -1
		bestSpan := -1
		var bestApply func()
		var bestMove tabuMove
		for k := 0; k < cfg.Neighborhood; k++ {
			var c cand
			if rng.Intn(2) == 0 {
				i := rng.Intn(n - 1)
				c = cand{
					move:  tabuMove{kind: 0, a: i, b: i + 1},
					apply: func() { list[i], list[i+1] = list[i+1], list[i] },
					undo:  func() { list[i], list[i+1] = list[i+1], list[i] },
				}
			} else {
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
				c = cand{
					move:  tabuMove{kind: 1, a: ti, b: next},
					apply: func() { opts[ti] = next },
					undo:  func() { opts[ti] = old },
				}
			}
			c.apply()
			sched, ok := referenceDecode(p, list, opts)
			c.undo()
			if !ok {
				continue
			}
			if until, isTabu := tabuUntil[c.move]; isTabu && it < until && sched.Makespan >= best.Makespan {
				continue
			}
			if bestCand == -1 || sched.Makespan < bestSpan {
				bestCand = k
				bestSpan = sched.Makespan
				bestApply = c.apply
				bestMove = c.move
			}
		}
		if bestCand == -1 {
			continue
		}
		bestApply()
		cur, ok := referenceDecode(p, list, opts)
		if !ok {
			continue
		}
		tabuUntil[bestMove] = it + cfg.Tenure
		if cur.Makespan < best.Makespan {
			best = cur.Clone()
		}
	}
	return best, true
}

// randomOracleProblem builds a small random instance covering what the
// decoder must reproduce: aliased device groups, start-start and lagged
// dependencies, repeated edges to one predecessor, zero-duration options,
// and a soft horizon short enough that placements grow the timeline. It has
// 1 to maxTasks tasks; infeasible adds one option whose demand exceeds a
// capacity outright.
func randomOracleProblem(rng *rand.Rand, maxTasks int, infeasible bool) *Problem {
	p := &Problem{NumClusters: 1 + rng.Intn(4), Horizon: 1 + rng.Intn(8)}
	for c := 0; c < p.NumClusters; c++ {
		p.ClusterGroup = append(p.ClusterGroup, rng.Intn(c+1))
	}
	for r := rng.Intn(3); r > 0; r-- {
		p.Resources = append(p.Resources, Resource{Name: "r", Capacity: float64(2 + rng.Intn(4))})
	}
	n := 1 + rng.Intn(maxTasks)
	for i := 0; i < n; i++ {
		t := Task{Name: "t"}
		for k := rng.Intn(3); k > 0 && i > 0; k-- {
			d := Dep{Task: rng.Intn(i), Lag: rng.Intn(3) * rng.Intn(2)}
			if rng.Intn(3) == 0 {
				d.Kind = StartStart
			}
			t.Deps = append(t.Deps, d)
			if rng.Intn(5) == 0 {
				t.Deps = append(t.Deps, Dep{Task: d.Task, Kind: 1 - d.Kind, Lag: rng.Intn(4)})
			}
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			o := Option{Cluster: rng.Intn(p.NumClusters), Duration: rng.Intn(7), Demand: make([]float64, len(p.Resources))}
			for r := range o.Demand {
				if rng.Intn(2) == 0 {
					o.Demand[r] = 0.5 * float64(1+rng.Intn(4))
				}
			}
			t.Options = append(t.Options, o)
		}
		p.Tasks = append(p.Tasks, t)
	}
	if infeasible && len(p.Resources) > 0 {
		t := &p.Tasks[rng.Intn(n)]
		o := &t.Options[rng.Intn(len(t.Options))]
		o.Duration = 1 + rng.Intn(3)
		o.Demand[0] = p.Resources[0].Capacity + 1
	}
	return p
}

// randomOracleLists returns activity lists and option choices for p: the
// heuristic portfolio plus random permutations, most of them not
// precedence-feasible, some with a duplicated, missing or negative entry.
func randomOracleLists(rng *rand.Rand, p *Problem) (lists, opts [][]int) {
	n := len(p.Tasks)
	for _, c := range heuristicCandidates(p) {
		lists = append(lists, c.list)
		opts = append(opts, c.opts)
	}
	for k := 0; k < 12; k++ {
		list := rng.Perm(n)
		switch rng.Intn(6) {
		case 0: // a later duplicate of an earlier entry
			list = append(list, list[rng.Intn(n)])
		case 1: // a duplicate replacing another task, which goes missing
			if n > 1 {
				list[rng.Intn(n)] = list[rng.Intn(n)]
			}
		case 2: // a skipped placeholder
			at := rng.Intn(n + 1)
			list = append(list[:at:at], append([]int{-1}, list[at:]...)...)
		}
		o := make([]int, n)
		for i := range o {
			o[i] = rng.Intn(len(p.Tasks[i].Options))
		}
		lists = append(lists, list)
		opts = append(opts, o)
	}
	return lists, opts
}

// checkDecodeMatches decodes every list with g, through both decode and
// decodeInto, and compares the results with the reference decoder's.
func checkDecodeMatches(t *testing.T, p *Problem, g *sgs, lists, opts [][]int) {
	t.Helper()
	var dst Schedule
	for k := range lists {
		want, wantOK := referenceDecode(p, lists[k], opts[k])
		got, gotOK := g.decode(lists[k], opts[k])
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("decode(list %v, opts %v) = %+v, %v; reference %+v, %v", lists[k], opts[k], got, gotOK, want, wantOK)
		}
		intoOK := g.decodeInto(&dst, lists[k], opts[k])
		if intoOK != wantOK {
			t.Fatalf("decodeInto(list %v, opts %v) ok = %v, reference %v", lists[k], opts[k], intoOK, wantOK)
		}
		if intoOK && (!reflect.DeepEqual(dst.Start, want.Start) || !reflect.DeepEqual(dst.Option, want.Option) || dst.Makespan != want.Makespan) {
			t.Fatalf("decodeInto(list %v, opts %v) = %+v; reference %+v", lists[k], opts[k], dst, want)
		}
	}
}

func TestDecodeMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	failed := 0
	for trial := 0; trial < 400; trial++ {
		p := randomOracleProblem(rng, 14, trial%5 == 4)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated an invalid problem: %v", trial, err)
		}
		lists, opts := randomOracleLists(rng, p)
		// One SGS per problem: every decode after the first reuses state
		// left by the previous one, failed decodes included.
		checkDecodeMatches(t, p, newSGS(p), lists, opts)
		for k := range lists {
			if _, ok := referenceDecode(p, lists[k], opts[k]); !ok {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Error("no random case exercised a failing decode")
	}
}

func TestDecodeMatchesReferenceHandBuilt(t *testing.T) {
	// Task 1 starts 2 steps after task 0 starts (start-start) and also 1
	// step after it finishes: two edges to the same predecessor. Task 2 has
	// a zero-duration option, and task 3 waits on it with a lag. The horizon
	// is 2 steps, so most placements grow the timeline.
	base := func() *Problem {
		return &Problem{
			Tasks: []Task{
				{Name: "a", Options: []Option{{Cluster: 0, Duration: 3, Demand: []float64{2}}}},
				{Name: "b", Deps: []Dep{{Task: 0, Kind: StartStart, Lag: 2}, {Task: 0, Kind: FinishStart, Lag: 1}},
					Options: []Option{{Cluster: 1, Duration: 2, Demand: []float64{2}}, {Cluster: 0, Duration: 1, Demand: []float64{1}}}},
				{Name: "c", Options: []Option{{Cluster: 2, Duration: 0, Demand: []float64{3}}, {Cluster: 1, Duration: 4, Demand: []float64{0}}}},
				{Name: "d", Deps: []Dep{{Task: 2, Kind: FinishStart, Lag: 3}, {Task: 1, Kind: StartStart}},
					Options: []Option{{Cluster: 2, Duration: 2, Demand: []float64{1}}}},
			},
			NumClusters:  3,
			ClusterGroup: []int{0, 1, 1},
			Resources:    []Resource{{Name: "power", Capacity: 3}},
			Horizon:      2,
		}
	}
	cases := []struct {
		name       string
		mutate     func(p *Problem)
		list, opts []int
		wantOK     bool
	}{
		{"feasible order", nil, []int{0, 1, 2, 3}, []int{0, 0, 0, 0}, true},
		{"successors first", nil, []int{3, 1, 2, 0}, []int{0, 1, 1, 0}, true},
		{"zero duration", nil, []int{2, 3, 0, 1}, []int{0, 0, 0, 0}, true},
		{"duplicate keeps first", nil, []int{1, 2, 0, 1, 3}, []int{0, 0, 1, 0}, true},
		{"placeholder skipped", nil, []int{-1, 2, 0, 1, 3}, []int{0, 1, 0, 0}, true},
		{"missing task", nil, []int{0, 1, 3}, []int{0, 0, 0, 0}, false},
		{"demand above capacity", func(p *Problem) { p.Tasks[3].Options[0].Demand[0] = 4 }, []int{0, 1, 2, 3}, []int{0, 0, 0, 0}, false},
		{"past the horizon", func(p *Problem) { p.Tasks[0].Options[0].Duration = 40 }, []int{3, 2, 1, 0}, []int{0, 1, 0, 0}, true},
	}
	for _, tc := range cases {
		p := base()
		if tc.mutate != nil {
			tc.mutate(p)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, ok := referenceDecode(p, tc.list, tc.opts); ok != tc.wantOK {
			t.Fatalf("%s: reference ok = %v, want %v", tc.name, ok, tc.wantOK)
		}
		checkDecodeMatches(t, p, newSGS(p), [][]int{tc.list}, [][]int{tc.opts})
	}
}

// TestDecodeMatchesReferenceLongLists covers lists longer than one bitset
// word, where placing a task can make an earlier word eligible again: a
// chain listed in reverse, and random instances of up to 150 tasks.
func TestDecodeMatchesReferenceLongLists(t *testing.T) {
	chain := &Problem{NumClusters: 2, ClusterGroup: []int{0, 1}, Horizon: 10}
	var list, opts []int
	for i := 0; i < 150; i++ {
		task := Task{Name: "t", Options: []Option{{Cluster: i % 2, Duration: 1 + i%3}}}
		if i > 0 {
			task.Deps = []Dep{{Task: i - 1}}
		}
		chain.Tasks = append(chain.Tasks, task)
		list = append([]int{i}, list...)
		opts = append(opts, 0)
	}
	checkDecodeMatches(t, chain, newSGS(chain), [][]int{list}, [][]int{opts})

	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		p := randomOracleProblem(rng, 150, false)
		lists, opts := randomOracleLists(rng, p)
		checkDecodeMatches(t, p, newSGS(p), lists, opts)
	}
}

// TestDecodeReuseMatchesFresh: an SGS whose last decode failed, or whose
// timeline SolveExact-style place/remove pairs have used (which can leave
// floating-point residue and leave the high-water mark raised), decodes
// exactly like a fresh one.
func TestDecodeReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		p := randomOracleProblem(rng, 14, false)
		lists, opts := randomOracleLists(rng, p)
		k := rng.Intn(len(lists))

		// lists[0] is a heuristic permutation; without its last entry
		// the decode fails after placing what it can.
		afterFail := newSGS(p)
		if _, ok := afterFail.decode(lists[0][:len(p.Tasks)-1], opts[0]); ok {
			t.Fatalf("trial %d: decode of a list missing a task succeeded", trial)
		}

		afterExact := newSGS(p)
		var placed []int
		for i := range p.Tasks {
			o := &p.Tasks[i].Options[opts[k][i]]
			s := afterExact.tl.earliestStart(o, rng.Intn(10), afterExact.maxStart)
			if s < 0 {
				continue
			}
			afterExact.tl.place(o, s)
			placed = append(placed, i, s)
		}
		for j := len(placed) - 2; j >= 0; j -= 2 {
			afterExact.tl.remove(&p.Tasks[placed[j]].Options[opts[k][placed[j]]], placed[j+1])
		}

		want, wantOK := newSGS(p).decode(lists[k], opts[k])
		for _, g := range []*sgs{afterFail, afterExact} {
			got, ok := g.decode(lists[k], opts[k])
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: reused SGS decoded %+v, %v; fresh %+v, %v", trial, got, ok, want, wantOK)
			}
		}
	}
}

// TestImproversMatchReference: Anneal and TabuSearch, with and without a
// warm-start seed, return the schedule the reference-decoder searches do
// for the same seed.
func TestImproversMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		p := randomOracleProblem(rng, 14, trial%8 == 7)
		var seedList, seedOpts []int
		if trial%2 == 1 {
			lists, opts := randomOracleLists(rng, p)
			k := len(lists) - 1 - rng.Intn(4)
			if len(lists[k]) == len(p.Tasks) {
				seedList, seedOpts = lists[k], opts[k]
			}
		}
		acfg := AnnealConfig{Iterations: 300, Restarts: 2, Seed: int64(trial), SeedList: seedList, SeedOpts: seedOpts}
		got, gotOK := Anneal(context.Background(), p, acfg)
		want, wantOK := referenceAnneal(p, acfg)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Anneal = %+v, %v; reference %+v, %v", trial, got, gotOK, want, wantOK)
		}
		tcfg := TabuConfig{Iterations: 60, Seed: int64(trial), SeedList: seedList, SeedOpts: seedOpts}
		got, gotOK = TabuSearch(context.Background(), p, tcfg)
		want, wantOK = referenceTabu(p, tcfg)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: TabuSearch = %+v, %v; reference %+v, %v", trial, got, gotOK, want, wantOK)
		}
	}
}
