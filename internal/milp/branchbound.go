package milp

import (
	"container/heap"
	"context"
	"errors"
	"math"
	"time"

	"hilp/internal/obs"
)

// Options configures a branch-and-bound solve.
type Options struct {
	// MaxNodes bounds the number of explored nodes; 0 means the default.
	MaxNodes int
	// TimeLimit bounds wall-clock time; 0 means no limit. A ctx deadline
	// passed to Solve composes with it: the earlier of the two wins, and the
	// budget is enforced inside LP node solves (before every pivot), not
	// only between nodes.
	TimeLimit time.Duration
	// GapTolerance stops the search once the relative gap between incumbent
	// and best bound drops below it. 0 means prove optimality (up to the
	// integrality tolerance).
	GapTolerance float64
	// IntTol is the integrality tolerance; values within IntTol of an
	// integer count as integral. 0 means the default of 1e-6.
	IntTol float64
	// WarmStart primes the search with a known feasible solution (e.g. one
	// found by the CP scheduler). Infeasible warm starts are ignored.
	WarmStart []float64
	// Obs carries optional tracing/metrics sinks; nil disables them.
	Obs *obs.Context
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 200000
	}
	if o.IntTol == 0 {
		o.IntTol = 1e-6
	}
	return o
}

// errStopped aborts LP node solves when the solve budget (ctx deadline or
// TimeLimit) expires mid-node; branch and bound converts it into a
// LimitReached/Feasible outcome rather than surfacing it as an error.
var errStopped = errors.New("milp: time budget exhausted")

// Solve solves the mixed-integer problem p with branch and bound over the LP
// relaxation. It returns the incumbent (if any) and the proven bound.
//
// Solve honors ctx: cancellation or a ctx deadline stops the search like an
// expired TimeLimit would, returning the incumbent found so far (Status
// Feasible or LimitReached) with the proven bound — work is never discarded.
// The budget is checked between nodes and, via a stop hook threaded into the
// simplex, before every pivot inside a node, so a pathological LP relaxation
// cannot blow past the deadline. A problem whose dense tableau would exceed
// the size cap is refused with ErrTooLarge, which also bounds one pivot.
func Solve(ctx context.Context, p *Problem, opts Options) (Solution, error) {
	opts = opts.withDefaults()
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}

	// The effective deadline is the earlier of the ctx deadline and
	// TimeLimit from now, expressed purely through the context so this
	// package never reads the wall clock itself; stop() is threaded through
	// every LP solve.
	if opts.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.TimeLimit)
		defer cancel()
	}
	// One ctx.Err() costs far less than one pivot over the tableau.
	stop := func() bool { return ctx.Err() != nil }

	octx := opts.Obs
	if p.NumIntegers() == 0 {
		sol, err := solveLPStop(p, stop)
		if err == nil {
			octx.Counter(obs.MSimplexPivots).Add(int64(sol.Iters))
		}
		if errors.Is(err, errStopped) {
			return Solution{Status: LimitReached, Bound: math.Inf(lpBoundSign(p))}, nil
		}
		return sol, err
	}

	baseLower := make([]float64, len(p.Vars))
	baseUpper := make([]float64, len(p.Vars))
	for i, v := range p.Vars {
		baseLower[i] = v.Lower
		baseUpper[i] = v.Upper
	}

	root, err := solveLPWithBounds(p, baseLower, baseUpper, stop)
	if errors.Is(err, errStopped) {
		// Budget gone before the root relaxation finished: nothing proven.
		return Solution{Status: LimitReached, Bound: math.Inf(lpBoundSign(p))}, nil
	}
	if err != nil {
		return Solution{}, err
	}
	totalIters := root.Iters
	var nodes, pruned int
	run := octx.StartSolver(ctx, "milp-bb")
	run.Span().ArgInt("vars", len(p.Vars)).ArgInt("integers", p.NumIntegers())
	defer func() {
		octx.Counter(obs.MSimplexPivots).Add(int64(totalIters))
		octx.Counter(obs.MBBNodes).Add(int64(nodes))
		octx.Counter(obs.MBBPruned).Add(int64(pruned))
		run.Span().ArgInt("nodes", nodes).ArgInt("pruned", pruned).ArgInt("pivots", totalIters)
		run.End()
	}()
	switch root.Status {
	case Infeasible:
		return Solution{Status: Infeasible, Bound: math.Inf(1)}, nil
	case Unbounded:
		return Solution{Status: Unbounded, Bound: math.Inf(-1)}, nil
	}

	// Internally we treat the problem as minimization: LP objectives are
	// compared with sign flipped for maximization problems.
	key := func(obj float64) float64 {
		if p.Maximize {
			return -obj
		}
		return obj
	}

	var (
		incumbent    []float64
		incumbentObj = math.Inf(1) // in minimization key space
	)
	if opts.WarmStart != nil {
		if err := p.CheckFeasible(opts.WarmStart, 10*opts.IntTol); err == nil {
			incumbent = roundIntegers(p, opts.WarmStart, opts.IntTol)
			incumbentObj = key(p.ObjectiveValue(incumbent))
			run.Incumbent(0, p.ObjectiveValue(incumbent))
		}
	}

	pq := &nodeQueue{}
	heap.Init(pq)
	heap.Push(pq, &bbNode{lower: baseLower, upper: baseUpper, bound: key(root.Objective), lp: root})

	fractional := func(x []float64) int {
		best, bestFrac := -1, opts.IntTol
		for j, v := range p.Vars {
			if !v.Integer {
				continue
			}
			f := math.Abs(x[j] - math.Round(x[j]))
			// Most-fractional branching: prefer values near 0.5.
			score := math.Min(f, 1-f)
			if f > opts.IntTol && score > bestFrac {
				bestFrac = score
				best = j
			}
		}
		if best >= 0 {
			return best
		}
		// Fall back to any fractional variable at all.
		for j, v := range p.Vars {
			if !v.Integer {
				continue
			}
			if f := math.Abs(x[j] - math.Round(x[j])); f > opts.IntTol {
				return j
			}
		}
		return -1
	}

	bestBound := key(root.Objective)
	limitHit := false
	// Bound events are recorded in the problem's own objective space (key is
	// its own inverse), throttled to changes of the proven bound.
	run.Bound(0, root.Objective)
	lastRecBound := bestBound

	for pq.Len() > 0 {
		if nodes >= opts.MaxNodes || stop() {
			limitHit = true
			break
		}
		node := heap.Pop(pq).(*bbNode)
		if node.bound >= incumbentObj-1e-9 {
			pruned++
			continue // dominated
		}
		bestBound = node.bound
		if bestBound != lastRecBound {
			run.Bound(nodes, key(bestBound))
			lastRecBound = bestBound
		}
		if !math.IsInf(incumbentObj, 1) && opts.GapTolerance > 0 {
			gap := (incumbentObj - bestBound) / math.Max(1, math.Abs(incumbentObj))
			if gap <= opts.GapTolerance {
				break
			}
		}
		nodes++

		lp := node.lp
		if lp.X == nil {
			sol, err := solveLPWithBounds(p, node.lower, node.upper, stop)
			if errors.Is(err, errStopped) {
				// The popped node's bound was computed when it was pushed and
				// is the heap minimum, so bestBound stays valid.
				limitHit = true
				break
			}
			if err != nil {
				return Solution{}, err
			}
			totalIters += sol.Iters
			if sol.Status != Optimal {
				continue
			}
			if key(sol.Objective) >= incumbentObj-1e-9 {
				continue
			}
			lp = sol
		}

		branch := fractional(lp.X)
		if branch < 0 {
			// Integer feasible.
			if obj := key(lp.Objective); obj < incumbentObj {
				incumbentObj = obj
				incumbent = roundIntegers(p, lp.X, opts.IntTol)
				run.Incumbent(nodes, lp.Objective)
			}
			continue
		}

		val := lp.X[branch]
		// Down branch: x <= floor(val).
		downUpper := cloneWith(node.upper, branch, math.Floor(val+opts.IntTol))
		if node.lower[branch] <= downUpper[branch]+eps {
			child, err := childNode(p, node.lower, downUpper, key, incumbentObj, &totalIters, stop)
			if errors.Is(err, errStopped) {
				limitHit = true
				break
			}
			if err != nil {
				return Solution{}, err
			}
			if child != nil {
				heap.Push(pq, child)
			} else {
				pruned++
			}
		}
		// Up branch: x >= ceil(val).
		upLower := cloneWith(node.lower, branch, math.Ceil(val-opts.IntTol))
		if upLower[branch] <= node.upper[branch]+eps {
			child, err := childNode(p, upLower, node.upper, key, incumbentObj, &totalIters, stop)
			if errors.Is(err, errStopped) {
				limitHit = true
				break
			}
			if err != nil {
				return Solution{}, err
			}
			if child != nil {
				heap.Push(pq, child)
			} else {
				pruned++
			}
		}
	}

	// The proven bound: the minimum over remaining open nodes and bestBound.
	if pq.Len() > 0 {
		for _, n := range *pq {
			if n.bound < bestBound {
				bestBound = n.bound
			}
		}
	} else if !limitHit && incumbent != nil {
		bestBound = incumbentObj
	}

	unkey := func(v float64) float64 {
		if p.Maximize {
			return -v
		}
		return v
	}

	if incumbent == nil {
		if limitHit {
			return Solution{Status: LimitReached, Bound: unkey(bestBound), Nodes: nodes, Iters: totalIters}, nil
		}
		return Solution{Status: Infeasible, Bound: math.Inf(1), Nodes: nodes, Iters: totalIters}, nil
	}

	obj := unkey(incumbentObj)
	bound := unkey(bestBound)
	status := Optimal
	gap := math.Abs(incumbentObj-bestBound) / math.Max(1, math.Abs(incumbentObj))
	if limitHit && gap > opts.GapTolerance+1e-12 {
		status = Feasible
	}
	run.Certify(obj, bound, status == Optimal)
	return Solution{Status: status, X: incumbent, Objective: obj, Bound: bound, Nodes: nodes, Iters: totalIters}, nil
}

// lpBoundSign is the sign of the trivial "no information" bound in the
// problem's own objective space: -Inf for minimization, +Inf for
// maximization.
func lpBoundSign(p *Problem) int {
	if p.Maximize {
		return 1
	}
	return -1
}

// childNode solves a child LP eagerly and returns a queue node, or nil if the
// child is infeasible or dominated by the incumbent. A stopped LP solve
// surfaces errStopped so the caller can convert it into a limit outcome.
func childNode(p *Problem, lower, upper []float64, key func(float64) float64, incumbentObj float64, iters *int, stopFn func() bool) (*bbNode, error) {
	sol, err := solveLPWithBounds(p, lower, upper, stopFn)
	if err != nil {
		return nil, err
	}
	*iters += sol.Iters
	if sol.Status != Optimal {
		return nil, nil
	}
	b := key(sol.Objective)
	if b >= incumbentObj-1e-9 {
		return nil, nil
	}
	return &bbNode{lower: lower, upper: upper, bound: b, lp: sol}, nil
}

// roundIntegers snaps near-integral integer variables to exact integers.
func roundIntegers(p *Problem, x []float64, tol float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	for j, v := range p.Vars {
		if v.Integer {
			if r := math.Round(out[j]); math.Abs(out[j]-r) <= 10*tol {
				out[j] = r
			}
		}
	}
	return out
}

func cloneWith(s []float64, idx int, val float64) []float64 {
	out := make([]float64, len(s))
	copy(out, s)
	out[idx] = val
	return out
}

// bbNode is a branch-and-bound subproblem.
type bbNode struct {
	lower, upper []float64
	bound        float64 // LP bound in minimization key space
	lp           Solution
}

// nodeQueue is a min-heap on the LP bound (best-bound-first search).
type nodeQueue []*bbNode

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].bound < q[j].bound }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*bbNode)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return item
}
