package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"hilp"
	"hilp/internal/core"
	"hilp/internal/scheduler"
)

// evaluate: independent cold hilp.Solve calls, one per op. Nothing is reused
// across ops, so core's adaptive-resolution loop plus the scheduler's
// annealing and destructive bounds do all the work; the starved Fig. 5b/5c
// points exercise the weak-bound cases.

type evalOp struct {
	w    hilp.Workload
	spec hilp.SoC
	cfg  hilp.SolverConfig
}

func (op evalOp) String() string { return op.w.Name + " " + op.spec.Label() }

// evalPlan draws evaluate ops from the seed. Each round holds one op for
// every (workload, CPU cores, GPU size) cell of the §VI grid, in
// seed-shuffled order, and deals the three budget regimes — paper defaults, a
// Fig. 5b bandwidth cap, a Fig. 5c power cap — to them in turn. Instance size
// and refinement count depend mostly on the cell, so every seed sees the same
// mix of op costs while the DSAs, caps and solver seed vary.
type evalPlan struct {
	rng   *rand.Rand
	works []hilp.Workload
	cells [][]hilp.SoC // per grid cell: its §VI specs, one per DSA ladder rung
	round []evalOp
}

var paperWorkloads = []func() hilp.Workload{hilp.RodiniaWorkload, hilp.DefaultWorkload, hilp.OptimizedWorkload}

// evalRound is the number of grid cells: 3 workloads x 3 core counts x 4 GPU
// sizes.
const evalRound = 36

func newEvalPlan(seed int64) *evalPlan {
	p := &evalPlan{rng: rand.New(rand.NewSource(seed))}
	for _, mk := range paperWorkloads {
		w := mk()
		for _, cores := range []int{1, 2, 4} {
			for _, gpu := range []int{0, 4, 16, 64} {
				p.works = append(p.works, w)
				p.cells = append(p.cells, hilp.DesignSpace(w, hilp.SpaceConfig{CPUCores: []int{cores}, GPUSMs: []int{gpu}}))
			}
		}
	}
	return p
}

func (p *evalPlan) next() evalOp {
	if len(p.round) == 0 {
		for _, c := range p.rng.Perm(len(p.cells)) {
			spec := p.cells[c][p.rng.Intn(len(p.cells[c]))]
			switch len(p.round) % 3 {
			case 1:
				spec.MemBandwidthGBs = 50 + 150*p.rng.Float64()
			case 2:
				spec.PowerBudgetWatts = 50 + 150*p.rng.Float64()
			}
			cfg := hilp.SolverConfig{Seed: 1 + p.rng.Int63n(1<<31), Effort: evalEffort}
			p.round = append(p.round, evalOp{w: p.works[c], spec: spec, cfg: cfg})
		}
	}
	op := p.round[0]
	p.round = p.round[1:]
	return op
}

// evalEffort is hilp-dse's default effort. It also keeps an op near 0.08 s,
// so a run measures the 200+ ops its p95 needs.
const evalEffort = 0.25

type evaluateBench struct {
	tr          *tracing
	plan        *evalPlan
	ops         []evalOp
	solved      int
	refinements int
}

func setupEvaluate(e *env) (bench, error) {
	b := &evaluateBench{tr: e.tr, plan: newEvalPlan(e.seed)}
	for i := 0; i < e.planned(2000); i++ {
		b.ops = append(b.ops, b.plan.next())
	}
	return b, nil
}

func (b *evaluateBench) run(ctx context.Context, bud budget, l *ledger) {
	for k := 0; bud.more(k); k++ {
		for k >= len(b.ops) {
			b.ops = append(b.ops, b.plan.next())
		}
		op := b.ops[k]
		sp, c := b.tr.op()
		t0 := time.Now()
		res, err := hilp.Solve(ctx, op.w, op.spec, hilp.WithSolver(op.cfg), hilp.WithObs(c))
		l.op(time.Since(t0).Seconds())
		sp.End()
		if checkEval(op, res, err, l) {
			b.solved++
			b.refinements += res.Refinements
		}
	}
}

// checkEval verifies one evaluation and records its certificate; it reports
// whether the evaluation passed.
func checkEval(op evalOp, res *core.Result, err error, l *ledger) bool {
	switch {
	case err != nil:
		l.fail("evaluate %s: %v", op, err)
	case res.Cancelled || res.Degraded:
		l.fail("evaluate %s: cancelled=%v degraded=%v", op, res.Cancelled, res.Degraded)
	default:
		if verr := checkSchedule(res.Instance.Problem, res.Sched); verr != nil {
			l.fail("evaluate %s: %v", op, verr)
			return false
		}
		l.certificate(res.Gap)
		return true
	}
	return false
}

// checkSchedule verifies a solve against its instance.
func checkSchedule(p *scheduler.Problem, r scheduler.Result) error {
	if err := r.Schedule.Validate(p); err != nil {
		return err
	}
	if r.LowerBound < 0 || r.LowerBound > r.Schedule.Makespan {
		return fmt.Errorf("lower bound %d outside [0, makespan %d]", r.LowerBound, r.Schedule.Makespan)
	}
	return nil
}

func (b *evaluateBench) check(context.Context, *ledger) {}

func (b *evaluateBench) layers(l *ledger, _ *spanTimes) {
	l.setLayer("core.refinements", ratio(float64(b.refinements), float64(b.solved)))
}

func (b *evaluateBench) close() error { return nil }
