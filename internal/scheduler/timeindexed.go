package scheduler

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hilp/internal/milp"
)

// ErrMILPIncomplete marks a "milp" improver solve that ended without a usable
// incumbent: a node or time limit hit before one was found, or an encoding
// too large for the dense simplex (milp.ErrTooLarge). Core's fault-tolerant
// chain treats it as transient, so such a solve degrades to the heuristics.
var ErrMILPIncomplete = errors.New("scheduler: milp search ended without an incumbent")

// MILPEncoding is a scheduling instance encoded as a time-indexed 0/1 integer
// linear program, the classic JSSP-as-ILP formulation the paper builds on
// (its references [36] and [68]): one binary per (task, option, start step),
// assignment and precedence rows, and one unary/resource row per time step
// (the paper's Eqs. 1-4 and 6-8). It is exact but grows with the time
// horizon; the "milp" improver solves it with the in-repo milp solver.
type MILPEncoding struct {
	// Problem is the 0/1 program; its objective is the makespan variable.
	Problem *milp.Problem
	// vars[i] maps task i to its (option, start) variable grid.
	vars []map[[2]int]int
	// makespanVar is the index of the makespan variable.
	makespanVar int
	src         *Problem
}

// EncodeMILP constructs the time-indexed encoding of p over its hard horizon.
// It returns an error when some task cannot fit inside the horizon.
func EncodeMILP(p *Problem) (*MILPEncoding, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	horizon := p.Horizon
	if horizon <= 0 {
		return nil, fmt.Errorf("scheduler: milp horizon %d, want > 0", horizon)
	}

	// Earliest starts from the dependency critical path.
	est := earliestStarts(p)

	m := milp.NewProblem()
	enc := &MILPEncoding{Problem: m, vars: make([]map[[2]int]int, len(p.Tasks)), src: p}

	enc.makespanVar = m.AddVariable("makespan", 0, float64(horizon), 1)

	for i := range p.Tasks {
		enc.vars[i] = make(map[[2]int]int)
		t := &p.Tasks[i]
		for oi, o := range t.Options {
			for s := est[i]; s+o.Duration <= horizon; s++ {
				enc.vars[i][[2]int{oi, s}] = m.AddBinary(fmt.Sprintf("x_t%d_o%d_s%d", i, oi, s), 0)
			}
		}
		if len(enc.vars[i]) == 0 {
			return nil, fmt.Errorf("scheduler: milp task %d (%s) cannot fit in horizon %d", i, t.Name, horizon)
		}
	}

	// Assignment: each task starts exactly once.
	for i := range p.Tasks {
		row := map[int]float64{}
		for _, v := range enc.vars[i] {
			row[v] = 1
		}
		m.AddConstraint(fmt.Sprintf("assign_t%d", i), row, milp.EQ, 1)
	}

	// Makespan: M >= sum (s + dur) x for each task.
	for i := range p.Tasks {
		row := map[int]float64{enc.makespanVar: -1}
		for key, v := range enc.vars[i] {
			oi, s := key[0], key[1]
			row[v] = float64(s + p.Tasks[i].Options[oi].Duration)
		}
		m.AddConstraint(fmt.Sprintf("makespan_t%d", i), row, milp.LE, 0)
	}

	// Precedence: successor's start expression >= predecessor's
	// finish/start expression plus lag.
	for i := range p.Tasks {
		for di, d := range p.Tasks[i].Deps {
			row := map[int]float64{}
			for key, v := range enc.vars[i] {
				row[v] += float64(key[1]) // start of successor
			}
			for key, v := range enc.vars[d.Task] {
				oi, s := key[0], key[1]
				switch d.Kind {
				case FinishStart:
					row[v] -= float64(s + p.Tasks[d.Task].Options[oi].Duration)
				case StartStart:
					row[v] -= float64(s)
				}
			}
			m.AddConstraint(fmt.Sprintf("prec_t%d_d%d", i, di), row, milp.GE, float64(d.Lag))
		}
	}

	// Per time step: group unary (non-interference) rows, then cumulative
	// resource rows (Eqs. 6-8).
	for g := 0; g < p.NumGroups(); g++ {
		enc.addStepRows(fmt.Sprintf("unary_g%d", g), 1, 2, func(o *Option) float64 {
			if p.ClusterGroup[o.Cluster] == g {
				return 1
			}
			return 0
		})
	}
	for r, res := range p.Resources {
		if !math.IsInf(res.Capacity, 1) {
			enc.addStepRows("res_"+res.Name, res.Capacity, 1, func(o *Option) float64 { return o.Demand[r] })
		}
	}

	return enc, nil
}

// addStepRows adds one row "name_s<step>" per time step: over the binaries
// whose option is running at that step, with coefficient coef(option) where
// it is nonzero, bounded by rhs. Rows with fewer than minVars terms are left
// out.
func (e *MILPEncoding) addStepRows(name string, rhs float64, minVars int, coef func(o *Option) float64) {
	p := e.src
	for step := 0; step < p.Horizon; step++ {
		row := map[int]float64{}
		for i := range p.Tasks {
			for key, v := range e.vars[i] {
				o := &p.Tasks[i].Options[key[0]]
				if c := coef(o); c != 0 && key[1] <= step && step < key[1]+o.Duration {
					row[v] = c
				}
			}
		}
		if len(row) >= minVars {
			e.Problem.AddConstraint(fmt.Sprintf("%s_s%d", name, step), row, milp.LE, rhs)
		}
	}
}

// decode converts an integer solution back into a schedule.
func (e *MILPEncoding) decode(sol milp.Solution) (Schedule, error) {
	p := e.src
	sched := Schedule{Start: make([]int, len(p.Tasks)), Option: make([]int, len(p.Tasks))}
	for i := range p.Tasks {
		sched.Start[i] = -1
		for key, v := range e.vars[i] {
			if sol.X[v] > 0.5 {
				sched.Option[i], sched.Start[i] = key[0], key[1]
				break
			}
		}
		if sched.Start[i] < 0 {
			return Schedule{}, fmt.Errorf("scheduler: milp chose no start for task %d (%s)", i, p.Tasks[i].Name)
		}
	}
	sched.ComputeMakespan(p)
	return sched, nil
}

// warmStart translates a feasible schedule into a variable assignment for
// the encoding, suitable for milp.Options.WarmStart. It returns an error if
// the schedule references a start time outside the encoded horizon.
func (e *MILPEncoding) warmStart(s Schedule) ([]float64, error) {
	x := make([]float64, len(e.Problem.Vars))
	x[e.makespanVar] = float64(s.Makespan)
	for i := range e.src.Tasks {
		v, ok := e.vars[i][[2]int{s.Option[i], s.Start[i]}]
		if !ok {
			return nil, fmt.Errorf("scheduler: milp task %d start %d (option %d) not encoded; horizon too small?",
				i, s.Start[i], s.Option[i])
		}
		x[v] = 1
	}
	return x, nil
}

// lpBound returns a lower bound on the optimal makespan from the LP
// relaxation of the time-indexed encoding (rounded up: makespans are
// integral). Cancelling ctx aborts the relaxation solve.
func lpBound(ctx context.Context, p *Problem) (int, error) {
	enc, err := EncodeMILP(p)
	if err != nil {
		return 0, err
	}
	sol, err := milp.SolveLP(ctx, enc.Problem)
	if err != nil {
		return 0, err
	}
	switch sol.Status {
	case milp.Optimal:
		return int(math.Ceil(sol.Objective - 1e-6)), nil
	case milp.Infeasible:
		return 0, fmt.Errorf("scheduler: LP relaxation infeasible (horizon too small?)")
	default:
		return 0, fmt.Errorf("scheduler: LP relaxation status %v", sol.Status)
	}
}

// timeIndexed is the "milp" improver.
type timeIndexed struct{}

func (timeIndexed) certifies() bool { return true }

// improve is the MILP search: the time-indexed encoding of p solved by branch
// and bound, warm-started from the heuristic portfolio. Its bound is the
// search's proven bound, no larger than the incumbent's makespan. A retry
// loosens the integrality tolerance and gap target, the standard response to
// numerics-induced failures. An Infeasible/Unbounded verdict on an instance
// the heuristics can schedule is classified as milp.ErrNumerics
// (infeasible-due-to-numerics), so core's chain retries and degrades instead
// of reporting a false infeasibility. A search that ends without an
// incumbent, or an encoding over the milp package's tableau size cap, fails
// with ErrMILPIncomplete.
func (timeIndexed) improve(ctx context.Context, p *Problem, cfg Config, _ candidate, retry bool) (outcome, error) {
	opts := milp.Options{
		MaxNodes:     cfg.ExactNodeLimit,
		GapTolerance: cfg.GapTarget,
		Obs:          cfg.Obs,
	}
	if retry {
		opts.IntTol = 1e-5
		opts.GapTolerance = math.Max(1.5*cfg.GapTarget, 0.02)
	}
	warm, haveWarm := HeuristicSchedule(p)
	enc, err := EncodeMILP(p)
	if err != nil {
		return outcome{}, err
	}
	if haveWarm {
		if x, werr := enc.warmStart(warm); werr == nil {
			opts.WarmStart = x
		}
	}
	sol, err := milp.Solve(ctx, enc.Problem, opts)
	if errors.Is(err, milp.ErrTooLarge) {
		return outcome{}, fmt.Errorf("%w: %w", ErrMILPIncomplete, err)
	}
	if err != nil {
		return outcome{}, err
	}

	switch sol.Status {
	case milp.Optimal, milp.Feasible:
		best, err := enc.decode(sol)
		if err != nil {
			return outcome{}, err
		}
		return outcome{best: best, bound: min(int(math.Ceil(sol.Bound-1e-6)), best.Makespan)}, nil
	case milp.Infeasible, milp.Unbounded:
		if haveWarm {
			return outcome{}, fmt.Errorf(
				"%w: milp reported %v for an instance the heuristics schedule in %d steps",
				milp.ErrNumerics, sol.Status, warm.Makespan)
		}
		return outcome{}, ErrInfeasible
	default: // LimitReached without incumbent
		return outcome{}, fmt.Errorf("%w (status %v)", ErrMILPIncomplete, sol.Status)
	}
}
