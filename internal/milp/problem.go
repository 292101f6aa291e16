// Package milp implements a small, self-contained mixed-integer linear
// programming solver: a dense two-phase primal simplex for linear relaxations
// and a best-bound branch-and-bound search for integer variables.
//
// The package exists because HILP's JSSP formulation is an integer linear
// program and no maintained ILP solver bindings exist for Go; it plays the
// role MiniZinc + OR-Tools play in the original paper. It is tuned for the
// moderately sized time-indexed scheduling encodings that package scheduler's
// "milp" improver builds rather than for industrial-scale LPs; a problem
// whose dense tableau would exceed a fixed size cap is refused (ErrTooLarge).
package milp

import (
	"fmt"
	"math"
)

// Sense describes the direction of a linear constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // left-hand side <= RHS
	GE              // left-hand side >= RHS
	EQ              // left-hand side == RHS
)

// String returns the conventional symbol for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Variable is a decision variable with bounds, an objective coefficient, and
// an optional integrality requirement.
type Variable struct {
	Name    string
	Lower   float64 // lower bound; may be 0 for the common case
	Upper   float64 // upper bound; math.Inf(1) when unbounded above
	Obj     float64 // objective coefficient
	Integer bool    // true if the variable must take an integer value
}

// Constraint is a sparse linear constraint sum_j Coefs[j]*x_j (Sense) RHS.
type Constraint struct {
	Name  string
	Coefs map[int]float64
	Sense Sense
	RHS   float64
}

// Problem is a linear program, possibly with integer variables. The objective
// is minimized unless Maximize is set.
type Problem struct {
	Vars     []Variable
	Cons     []Constraint
	Maximize bool
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem {
	return &Problem{}
}

// AddVariable appends a continuous variable and returns its index.
func (p *Problem) AddVariable(name string, lower, upper, obj float64) int {
	p.Vars = append(p.Vars, Variable{Name: name, Lower: lower, Upper: upper, Obj: obj})
	return len(p.Vars) - 1
}

// AddBinary appends a 0/1 integer variable and returns its index.
func (p *Problem) AddBinary(name string, obj float64) int {
	p.Vars = append(p.Vars, Variable{Name: name, Lower: 0, Upper: 1, Obj: obj, Integer: true})
	return len(p.Vars) - 1
}

// AddInteger appends a bounded integer variable and returns its index.
func (p *Problem) AddInteger(name string, lower, upper, obj float64) int {
	p.Vars = append(p.Vars, Variable{Name: name, Lower: lower, Upper: upper, Obj: obj, Integer: true})
	return len(p.Vars) - 1
}

// AddConstraint appends a constraint built from the given sparse row. The
// coefficient map is copied so callers may reuse their map.
func (p *Problem) AddConstraint(name string, coefs map[int]float64, sense Sense, rhs float64) {
	row := make(map[int]float64, len(coefs))
	for j, v := range coefs {
		if v != 0 {
			row[j] = v
		}
	}
	p.Cons = append(p.Cons, Constraint{Name: name, Coefs: row, Sense: sense, RHS: rhs})
}

// Validate reports structural problems: out-of-range variable indices in
// constraints, inverted bounds, or NaN coefficients.
func (p *Problem) Validate() error {
	for i, v := range p.Vars {
		if math.IsNaN(v.Lower) || math.IsNaN(v.Upper) || math.IsNaN(v.Obj) {
			return fmt.Errorf("milp: variable %d (%s) has NaN bound or objective", i, v.Name)
		}
		if v.Lower > v.Upper {
			return fmt.Errorf("milp: variable %d (%s) has lower bound %g > upper bound %g", i, v.Name, v.Lower, v.Upper)
		}
	}
	for i, c := range p.Cons {
		if math.IsNaN(c.RHS) {
			return fmt.Errorf("milp: constraint %d (%s) has NaN RHS", i, c.Name)
		}
		for j, v := range c.Coefs {
			if j < 0 || j >= len(p.Vars) {
				return fmt.Errorf("milp: constraint %d (%s) references variable %d, have %d variables", i, c.Name, j, len(p.Vars))
			}
			if math.IsNaN(v) {
				return fmt.Errorf("milp: constraint %d (%s) has NaN coefficient for variable %d", i, c.Name, j)
			}
		}
	}
	return nil
}

// CheckFeasible verifies that x satisfies every bound, constraint, and
// integrality requirement of p within tol. It returns nil when x is a
// feasible solution.
func (p *Problem) CheckFeasible(x []float64, tol float64) error {
	if len(x) != len(p.Vars) {
		return fmt.Errorf("milp: solution has %d values, want %d", len(x), len(p.Vars))
	}
	for j, v := range p.Vars {
		if x[j] < v.Lower-tol || x[j] > v.Upper+tol {
			return fmt.Errorf("milp: variable %d (%s) = %g outside [%g, %g]", j, v.Name, x[j], v.Lower, v.Upper)
		}
		if v.Integer {
			if r := math.Round(x[j]); math.Abs(x[j]-r) > tol {
				return fmt.Errorf("milp: variable %d (%s) = %g not integral", j, v.Name, x[j])
			}
		}
	}
	for i, c := range p.Cons {
		lhs := 0.0
		for j, a := range c.Coefs {
			lhs += a * x[j]
		}
		switch c.Sense {
		case LE:
			if lhs > c.RHS+tol {
				return fmt.Errorf("milp: constraint %d (%s) violated: %g > %g", i, c.Name, lhs, c.RHS)
			}
		case GE:
			if lhs < c.RHS-tol {
				return fmt.Errorf("milp: constraint %d (%s) violated: %g < %g", i, c.Name, lhs, c.RHS)
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > tol {
				return fmt.Errorf("milp: constraint %d (%s) violated: %g != %g", i, c.Name, lhs, c.RHS)
			}
		}
	}
	return nil
}

// ObjectiveValue returns c*x for the problem's objective coefficients.
func (p *Problem) ObjectiveValue(x []float64) float64 {
	obj := 0.0
	for j, v := range p.Vars {
		obj += v.Obj * x[j]
	}
	return obj
}

// NumIntegers reports how many variables are integer-constrained.
func (p *Problem) NumIntegers() int {
	n := 0
	for _, v := range p.Vars {
		if v.Integer {
			n++
		}
	}
	return n
}

// Status describes the outcome of a solve.
type Status int

// Solve statuses.
const (
	// Optimal means an optimal solution was found (for MILP: proven optimal
	// within the configured gap tolerance).
	Optimal Status = iota
	// Feasible means an integer-feasible solution was found but optimality
	// was not proven within the node or time budget.
	Feasible
	// Infeasible means the problem has no feasible solution.
	Infeasible
	// Unbounded means the objective is unbounded in the optimization
	// direction.
	Unbounded
	// LimitReached means the search budget was exhausted before any feasible
	// solution was found.
	LimitReached
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case LimitReached:
		return "limit-reached"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of an LP or MILP solve.
type Solution struct {
	Status    Status
	X         []float64 // variable values (valid when Status is Optimal or Feasible)
	Objective float64   // objective value of X
	Bound     float64   // proven bound on the optimum (<= Objective when minimizing)
	Nodes     int       // branch-and-bound nodes explored (0 for pure LP)
	Iters     int       // total simplex iterations
}

// Gap returns the relative optimality gap |Objective-Bound| / max(1,|Objective|).
func (s Solution) Gap() float64 {
	if s.Status != Optimal && s.Status != Feasible {
		return math.Inf(1)
	}
	denom := math.Max(1, math.Abs(s.Objective))
	return math.Abs(s.Objective-s.Bound) / denom
}
