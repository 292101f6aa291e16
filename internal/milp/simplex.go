package milp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

const (
	// eps is the general numeric tolerance for the simplex method.
	eps = 1e-9
	// feasTol is the tolerance used when deciding feasibility of phase 1.
	feasTol = 1e-7
	// blandAfter switches pivoting to Bland's rule (guaranteed termination)
	// after this many iterations with the Dantzig rule.
	blandAfter = 20000
)

// ErrNumerics is the sentinel for numerical failure of the simplex method:
// degenerate-pivot stalls, iteration-budget exhaustion, and phase-1
// unboundedness all wrap it, so callers can distinguish "the arithmetic broke
// down" from genuine infeasibility and retry with perturbed tolerances or
// fall back to another solver.
var ErrNumerics = errors.New("milp: numerical instability detected")

// ErrIterationLimit is returned when the simplex method fails to converge
// within its iteration budget; it wraps ErrNumerics.
var ErrIterationLimit = fmt.Errorf("%w: simplex iteration limit exceeded", ErrNumerics)

// ErrDegenerate is returned when the simplex stalls on a long run of
// degenerate pivots (no objective progress) that even Bland's anti-cycling
// rule fails to break — floating-point cycling. It wraps ErrNumerics.
var ErrDegenerate = fmt.Errorf("%w: degenerate pivot stall", ErrNumerics)

// ErrTooLarge is returned when the dense tableau of a problem would exceed
// maxTableauCells. The problem is not solved: the cap keeps one pivot, and so
// the work between two polls of the solve budget, bounded, and an oversized
// encoding from exhausting memory.
var ErrTooLarge = errors.New("milp: dense tableau exceeds the size cap")

// maxTableauCells caps rows x (columns+1) of the dense tableau: 1<<24
// float64 cells, 128 MiB.
const maxTableauCells = 1 << 24

// degenStreakLimit is the number of consecutive zero-progress pivots treated
// as a stall. It exceeds blandAfter so Bland's rule gets a full chance to
// break ties before the solve is declared numerically stuck.
const degenStreakLimit = blandAfter + 10000

// SolveLP solves the linear relaxation of p (integrality dropped) and returns
// the solution. The returned Solution has Status Optimal, Infeasible, or
// Unbounded. Cancelling ctx aborts the solve between pivots; the
// interrupted solve returns Status LimitReached with the trivial bound, never
// an error, matching Solve's anytime semantics.
func SolveLP(ctx context.Context, p *Problem) (Solution, error) {
	stop := func() bool { return ctx.Err() != nil }
	sol, err := solveLPStop(p, stop)
	if errors.Is(err, errStopped) {
		return Solution{Status: LimitReached, Bound: math.Inf(lpBoundSign(p))}, nil
	}
	return sol, err
}

// solveLPStop is SolveLP with an optional stop hook, polled before every
// pivot; a true return aborts the solve with errStopped.
func solveLPStop(p *Problem, stop func() bool) (Solution, error) {
	lower := make([]float64, len(p.Vars))
	upper := make([]float64, len(p.Vars))
	for i, v := range p.Vars {
		lower[i] = v.Lower
		upper[i] = v.Upper
	}
	return solveLPWithBounds(p, lower, upper, stop)
}

// solveLPWithBounds solves the LP relaxation with the given variable bounds
// overriding those in p. Branch and bound uses this to explore subproblems
// without mutating the problem. A non-nil stop hook is polled before every
// pivot so an expiring solve budget interrupts even a pathological LP
// mid-node; the solve then returns errStopped.
func solveLPWithBounds(p *Problem, lower, upper []float64, stop func() bool) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	for j := range lower {
		if math.IsInf(lower[j], -1) {
			return Solution{}, fmt.Errorf("milp: variable %d (%s) has no finite lower bound; free variables are not supported", j, p.Vars[j].Name)
		}
		if lower[j] > upper[j]+eps {
			return Solution{Status: Infeasible, Bound: math.Inf(1)}, nil
		}
	}

	t, err := newTableau(p, lower, upper)
	if err != nil {
		return Solution{}, err
	}
	t.stop = stop

	// Phase 1: minimize the sum of artificial variables.
	if t.numArtificial > 0 {
		t.setPhase1Costs()
		if err := t.iterate(); err != nil {
			return Solution{}, err
		}
		if t.objective() > feasTol {
			return Solution{Status: Infeasible, Bound: math.Inf(1)}, nil
		}
		t.driveOutArtificials()
	}

	// Phase 2: minimize the true objective.
	t.setPhase2Costs()
	if err := t.iterate(); err != nil {
		if errors.Is(err, errUnbounded) {
			return Solution{Status: Unbounded, Bound: math.Inf(-1), Iters: t.iters}, nil
		}
		return Solution{}, err
	}

	x := t.extract(lower)
	obj := 0.0
	for j, v := range p.Vars {
		obj += v.Obj * x[j]
	}
	// The tableau always minimizes; for maximization its costs were negated,
	// so obj computed from the original coefficients is already correct.
	return Solution{Status: Optimal, X: x, Objective: obj, Bound: obj, Iters: t.iters}, nil
}

var errUnbounded = errors.New("milp: unbounded")

// tableau is a dense simplex tableau in computational form: rows are
// constraints (all equalities after adding slack/surplus/artificial columns),
// with a maintained reduced-cost row.
type tableau struct {
	p             *Problem
	m             int         // number of rows
	n             int         // number of structural (shifted) variables
	total         int         // total columns excluding RHS
	rows          [][]float64 // m rows, each of length total+1 (last = RHS)
	cost          []float64   // current phase cost per column
	reduced       []float64   // reduced costs, length total
	z             float64     // current objective value (c_B * x_B)
	basis         []int       // basic variable (column) per row
	artStart      int         // first artificial column
	numArtificial int
	realCost      []float64 // phase-2 costs per column
	phase2        bool
	iters         int
	stop          func() bool // optional solve-budget hook, polled per pivot
}

// newTableau builds the standard-form tableau for p with variables shifted by
// their lower bounds and finite upper bounds added as explicit rows. A
// tableau over maxTableauCells is refused with ErrTooLarge.
func newTableau(p *Problem, lower, upper []float64) (*tableau, error) {
	n := len(p.Vars)

	type rowSpec struct {
		coefs map[int]float64
		sense Sense
		rhs   float64
	}
	var specs []rowSpec

	// Original constraints with the lower-bound shift folded into the RHS.
	for _, c := range p.Cons {
		rhs := c.RHS
		for j, a := range c.Coefs {
			rhs -= a * lower[j]
		}
		specs = append(specs, rowSpec{coefs: c.Coefs, sense: c.Sense, rhs: rhs})
	}
	// Upper bounds as x'_j <= u_j - l_j.
	for j := range p.Vars {
		if !math.IsInf(upper[j], 1) {
			specs = append(specs, rowSpec{coefs: map[int]float64{j: 1}, sense: LE, rhs: upper[j] - lower[j]})
		}
	}

	m := len(specs)
	// Count extra columns: slack per LE, surplus+artificial per GE,
	// artificial per EQ. Rows with negative RHS get their sense flipped.
	numSlack, numArt := 0, 0
	senses := make([]Sense, m)
	negate := make([]bool, m)
	for i, s := range specs {
		sense := s.sense
		if s.rhs < 0 {
			negate[i] = true
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		senses[i] = sense
		switch sense {
		case LE:
			numSlack++
		case GE:
			numSlack++ // surplus
			numArt++
		case EQ:
			numArt++
		}
	}

	total := n + numSlack + numArt
	if m*(total+1) > maxTableauCells {
		return nil, fmt.Errorf("%w: %d rows x %d columns", ErrTooLarge, m, total+1)
	}
	t := &tableau{
		p:             p,
		m:             m,
		n:             n,
		total:         total,
		artStart:      n + numSlack,
		numArtificial: numArt,
		basis:         make([]int, m),
	}
	t.rows = make([][]float64, m)
	slackCol := n
	artCol := t.artStart
	for i, s := range specs {
		row := make([]float64, total+1)
		sign := 1.0
		rhs := s.rhs
		if negate[i] {
			sign = -1.0
			rhs = -rhs
		}
		for j, a := range s.coefs {
			row[j] = sign * a
		}
		row[total] = rhs
		switch senses[i] {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.rows[i] = row
	}

	// Phase-2 costs: structural variables carry the (possibly negated for
	// maximization) objective coefficients; slack and artificial columns are
	// free.
	t.realCost = make([]float64, total)
	for j, v := range p.Vars {
		if p.Maximize {
			t.realCost[j] = -v.Obj
		} else {
			t.realCost[j] = v.Obj
		}
	}
	return t, nil
}

// setPhase1Costs installs the phase-1 objective (sum of artificials) and
// recomputes reduced costs from scratch.
func (t *tableau) setPhase1Costs() {
	t.phase2 = false
	t.cost = make([]float64, t.total)
	for j := t.artStart; j < t.total; j++ {
		t.cost[j] = 1
	}
	t.recomputeReduced()
}

// setPhase2Costs installs the true objective and recomputes reduced costs.
func (t *tableau) setPhase2Costs() {
	t.phase2 = true
	t.cost = t.realCost
	t.recomputeReduced()
}

// recomputeReduced rebuilds the reduced-cost row r_j = c_j - c_B * A_j and
// the objective value from the current basis.
func (t *tableau) recomputeReduced() {
	t.reduced = make([]float64, t.total)
	copy(t.reduced, t.cost)
	t.z = 0
	for i := 0; i < t.m; i++ {
		cb := t.cost[t.basis[i]]
		if cb == 0 {
			continue
		}
		row := t.rows[i]
		for j := 0; j < t.total; j++ {
			t.reduced[j] -= cb * row[j]
		}
		t.z += cb * row[t.total]
	}
}

// objective returns the current phase objective value.
func (t *tableau) objective() float64 { return t.z }

// iterate runs simplex pivots until optimality, unboundedness, or the
// iteration limit.
func (t *tableau) iterate() error {
	inPhase2 := t.phase2
	maxIters := 200*(t.m+t.total) + 20000
	degen := 0
	for it := 0; ; it++ {
		if it > maxIters {
			return ErrIterationLimit
		}
		if t.stop != nil && t.stop() {
			return errStopped
		}
		bland := t.iters >= blandAfter
		enter := t.chooseEntering(bland, inPhase2)
		if enter < 0 {
			return nil // optimal for this phase
		}
		leave := t.chooseLeaving(enter)
		if leave < 0 {
			if inPhase2 {
				return errUnbounded
			}
			// Phase 1 is bounded below by zero; an unbounded ray here means
			// numerical trouble.
			return fmt.Errorf("%w: phase-1 unbounded ratio test", ErrNumerics)
		}
		zBefore := t.z
		t.pivot(leave, enter)
		t.iters++
		// A pivot that moves the objective by essentially nothing is
		// degenerate; a long unbroken run of them (outlasting Bland's rule)
		// means the arithmetic is cycling, not converging.
		if math.Abs(t.z-zBefore) <= eps*(1+math.Abs(zBefore)) {
			if degen++; degen > degenStreakLimit {
				return ErrDegenerate
			}
		} else {
			degen = 0
		}
	}
}

// chooseEntering picks the entering column: Dantzig (most negative reduced
// cost) normally, Bland (lowest index) when anti-cycling is active. In phase
// 2 artificial columns are never allowed to re-enter.
func (t *tableau) chooseEntering(bland, inPhase2 bool) int {
	limit := t.total
	if inPhase2 {
		limit = t.artStart
	}
	if bland {
		for j := 0; j < limit; j++ {
			if t.reduced[j] < -eps {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -eps
	for j := 0; j < limit; j++ {
		if t.reduced[j] < bestVal {
			bestVal = t.reduced[j]
			best = j
		}
	}
	return best
}

// chooseLeaving performs the minimum-ratio test for the entering column and
// returns the pivot row, or -1 if the column is unbounded.
func (t *tableau) chooseLeaving(enter int) int {
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		a := t.rows[i][enter]
		if a <= eps {
			continue
		}
		ratio := t.rows[i][t.total] / a
		if ratio < bestRatio-eps {
			bestRatio = ratio
			best = i
		} else if ratio < bestRatio+eps && best >= 0 {
			// Tie-break: prefer the row whose basic variable has the lowest
			// index (Bland) to limit cycling; always applied on ties.
			if t.basis[i] < t.basis[best] {
				best = i
			}
		}
	}
	return best
}

// pivot performs a Gauss-Jordan pivot on (row, col) and updates the reduced
// costs and objective.
func (t *tableau) pivot(row, col int) {
	pr := t.rows[row]
	pv := pr[col]
	inv := 1.0 / pv
	for j := 0; j <= t.total; j++ {
		pr[j] *= inv
	}
	pr[col] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		r := t.rows[i]
		f := r[col]
		if f == 0 {
			continue
		}
		for j := 0; j <= t.total; j++ {
			r[j] -= f * pr[j]
		}
		r[col] = 0 // exact
	}
	f := t.reduced[col]
	if f != 0 {
		for j := 0; j < t.total; j++ {
			t.reduced[j] -= f * pr[j]
		}
		t.reduced[col] = 0
		t.z += f * pr[t.total]
	}
	t.basis[row] = col
}

// driveOutArtificials pivots basic artificial variables (at value zero after
// a feasible phase 1) out of the basis where possible. Rows where no real
// column has a nonzero coefficient are redundant and left alone; their
// artificial stays basic at zero and is barred from re-entering in phase 2.
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		row := t.rows[i]
		col := -1
		for j := 0; j < t.artStart; j++ {
			if math.Abs(row[j]) > 1e-7 {
				col = j
				break
			}
		}
		if col >= 0 {
			t.pivot(i, col)
		}
	}
}

// extract returns the structural variable values, un-shifting lower bounds.
func (t *tableau) extract(lower []float64) []float64 {
	x := make([]float64, t.n)
	copy(x, lower)
	for i := 0; i < t.m; i++ {
		if b := t.basis[i]; b < t.n {
			x[b] = lower[b] + t.rows[i][t.total]
		}
	}
	// Clean tiny negatives introduced by roundoff.
	for j := range x {
		if x[j] < lower[j] && x[j] > lower[j]-1e-7 {
			x[j] = lower[j]
		}
	}
	return x
}
