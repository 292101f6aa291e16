package milp

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSolveLPSimpleMax(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> x=4, y=0, obj=12.
	p := NewProblem()
	p.Maximize = true
	x := p.AddVariable("x", 0, math.Inf(1), 3)
	y := p.AddVariable("y", 0, math.Inf(1), 2)
	p.AddConstraint("c1", map[int]float64{x: 1, y: 1}, LE, 4)
	p.AddConstraint("c2", map[int]float64{x: 1, y: 3}, LE, 6)

	sol, err := SolveLP(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEqual(sol.Objective, 12, 1e-6) {
		t.Errorf("objective = %g, want 12", sol.Objective)
	}
	if !almostEqual(sol.X[x], 4, 1e-6) || !almostEqual(sol.X[y], 0, 1e-6) {
		t.Errorf("x = %v, want [4 0]", sol.X)
	}
}

func TestSolveLPSimpleMin(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x <= 6 -> x=6, y=4, obj=24.
	p := NewProblem()
	x := p.AddVariable("x", 0, 6, 2)
	y := p.AddVariable("y", 0, math.Inf(1), 3)
	p.AddConstraint("cover", map[int]float64{x: 1, y: 1}, GE, 10)

	sol, err := SolveLP(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEqual(sol.Objective, 24, 1e-6) {
		t.Errorf("objective = %g, want 24", sol.Objective)
	}
}

func TestSolveLPEquality(t *testing.T) {
	// min x + y s.t. x + 2y == 8, x - y == 2 -> y=2, x=4, obj=6.
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1), 1)
	y := p.AddVariable("y", 0, math.Inf(1), 1)
	p.AddConstraint("e1", map[int]float64{x: 1, y: 2}, EQ, 8)
	p.AddConstraint("e2", map[int]float64{x: 1, y: -1}, EQ, 2)

	sol, err := SolveLP(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEqual(sol.X[x], 4, 1e-6) || !almostEqual(sol.X[y], 2, 1e-6) {
		t.Errorf("x = %v, want [4 2]", sol.X)
	}
}

func TestSolveLPInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 1, 1)
	p.AddConstraint("impossible", map[int]float64{x: 1}, GE, 5)

	sol, err := SolveLP(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveLPUnbounded(t *testing.T) {
	p := NewProblem()
	p.Maximize = true
	x := p.AddVariable("x", 0, math.Inf(1), 1)
	y := p.AddVariable("y", 0, math.Inf(1), 0)
	p.AddConstraint("c", map[int]float64{y: 1}, LE, 3)
	_ = x

	sol, err := SolveLP(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveLPNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3 (i.e. x >= 3) -> x=3.
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1), 1)
	p.AddConstraint("neg", map[int]float64{x: -1}, LE, -3)

	sol, err := SolveLP(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !almostEqual(sol.X[x], 3, 1e-6) {
		t.Fatalf("got %v x=%v, want optimal x=3", sol.Status, sol.X)
	}
}

func TestSolveLPShiftedLowerBounds(t *testing.T) {
	// min x + y with x in [2,10], y in [3,10], x + y >= 7 -> obj 7.
	p := NewProblem()
	x := p.AddVariable("x", 2, 10, 1)
	y := p.AddVariable("y", 3, 10, 1)
	p.AddConstraint("c", map[int]float64{x: 1, y: 1}, GE, 7)

	sol, err := SolveLP(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !almostEqual(sol.Objective, 7, 1e-6) {
		t.Fatalf("got %v obj=%g, want optimal 7", sol.Status, sol.Objective)
	}
	if sol.X[x] < 2-1e-9 || sol.X[y] < 3-1e-9 {
		t.Errorf("solution violates lower bounds: %v", sol.X)
	}
}

func TestSolveLPDegenerate(t *testing.T) {
	// A classically degenerate LP; must terminate and find the optimum.
	// max 10x1 - 57x2 - 9x3 - 24x4 subject to Beale's cycling example rows.
	p := NewProblem()
	p.Maximize = true
	x1 := p.AddVariable("x1", 0, math.Inf(1), 10)
	x2 := p.AddVariable("x2", 0, math.Inf(1), -57)
	x3 := p.AddVariable("x3", 0, math.Inf(1), -9)
	x4 := p.AddVariable("x4", 0, math.Inf(1), -24)
	p.AddConstraint("r1", map[int]float64{x1: 0.5, x2: -5.5, x3: -2.5, x4: 9}, LE, 0)
	p.AddConstraint("r2", map[int]float64{x1: 0.5, x2: -1.5, x3: -0.5, x4: 1}, LE, 0)
	p.AddConstraint("r3", map[int]float64{x1: 1}, LE, 1)

	sol, err := SolveLP(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEqual(sol.Objective, 1, 1e-6) {
		t.Errorf("objective = %g, want 1", sol.Objective)
	}
}

func TestSolveLPConflictingBoundOverride(t *testing.T) {
	p := NewProblem()
	p.AddVariable("x", 0, 10, 1)
	sol, err := solveLPWithBounds(p, []float64{5}, []float64{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible for crossed bounds", sol.Status)
	}
}

func TestValidateRejectsBadProblems(t *testing.T) {
	p := NewProblem()
	p.AddVariable("x", 0, 1, 1)
	p.AddConstraint("bad", map[int]float64{3: 1}, LE, 1)
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range variable index")
	}

	q := NewProblem()
	q.Vars = append(q.Vars, Variable{Name: "y", Lower: 2, Upper: 1})
	if err := q.Validate(); err == nil {
		t.Fatal("Validate accepted inverted bounds")
	}

	r := NewProblem()
	r.AddVariable("z", 0, 1, math.NaN())
	if err := r.Validate(); err == nil {
		t.Fatal("Validate accepted NaN objective")
	}
}

// TestSolveLPFeasibilityProperty: for random bounded transportation-style
// problems, the simplex solution must satisfy every constraint and all bounds.
func TestSolveLPFeasibilityProperty(t *testing.T) {
	f := func(seedA, seedB uint8) bool {
		// Deterministic small LP from the two seed bytes:
		// min sum x_i with a cover constraint and per-variable capacities.
		n := 2 + int(seedA%4)
		p := NewProblem()
		caps := make([]float64, n)
		total := 0.0
		for i := 0; i < n; i++ {
			caps[i] = 1 + float64((int(seedA)*7+int(seedB)*13+i*31)%9)
			total += caps[i]
			p.AddVariable("x", 0, caps[i], 1+float64(i%3))
		}
		demand := total * (0.2 + 0.6*float64(seedB)/255)
		row := map[int]float64{}
		for i := 0; i < n; i++ {
			row[i] = 1
		}
		p.AddConstraint("demand", row, GE, demand)

		sol, err := SolveLP(context.Background(), p)
		if err != nil || sol.Status != Optimal {
			return false
		}
		sum := 0.0
		for i := 0; i < n; i++ {
			if sol.X[i] < -1e-6 || sol.X[i] > caps[i]+1e-6 {
				return false
			}
			sum += sol.X[i]
		}
		return sum >= demand-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTableauSizeCap checks that a problem whose dense tableau is just over
// maxTableauCells is refused with ErrTooLarge instead of being allocated:
// 2897 binaries give 2897 upper-bound rows and 2897+2897+1 columns, 16.79M
// cells against the cap's 16.78M. The refusal is not a numerics failure.
func TestTableauSizeCap(t *testing.T) {
	p := NewProblem()
	for i := 0; i < 2897; i++ {
		p.AddBinary("x", 1)
	}
	if _, err := SolveLP(context.Background(), p); !errors.Is(err, ErrTooLarge) {
		t.Errorf("SolveLP: err = %v, want ErrTooLarge", err)
	}
	_, err := Solve(context.Background(), p, Options{})
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("Solve: err = %v, want ErrTooLarge", err)
	}
	if errors.Is(err, ErrNumerics) {
		t.Error("ErrTooLarge wraps ErrNumerics")
	}
}
