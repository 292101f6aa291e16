package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"hilp"
	"hilp/internal/core"
	"hilp/internal/milp"
	"hilp/internal/scheduler"
	"hilp/internal/timeindexed"
)

// milp: custom fig2-family models solved by the time-indexed MILP
// (timeindexed + simplex + branch and bound) to proven optimality, no
// annealing. It is the before/after workload for the simplex and LP-bound
// work, and the predicted-no-change workload for anneal optimizations.

// fig2Model draws a model of the paper's Fig. 2 family: each application is
// a CPU setup phase, a compute phase that may run on the CPU, GPU or DSA,
// and a CPU teardown phase, under Fig. 2's 3 W power cap. Durations are whole
// seconds, so at 1 s steps horizon serialHorizon always fits.
func fig2Model(rng *rand.Rand, apps int) hilp.CustomModel {
	m := hilp.CustomModel{
		Name:         fmt.Sprintf("fig2-%dapp", apps),
		Clusters:     []hilp.CustomCluster{{Name: "cpu0"}, {Name: "gpu0"}, {Name: "dsa0"}},
		PowerBudgetW: 3,
	}
	for a := 0; a < apps; a++ {
		name := func(phase int) string { return fmt.Sprintf("a%dp%d", a, phase) }
		cpu := 4 + rng.Intn(4)
		m.Tasks = append(m.Tasks,
			hilp.CustomTask{Name: name(0), App: a, Phase: 0,
				Options: []hilp.CustomOption{{Cluster: "cpu0", Sec: float64(1 + rng.Intn(2)), PowerW: 1}}},
			hilp.CustomTask{Name: name(1), App: a, Phase: 1, Deps: []hilp.CustomDep{{Task: name(0)}},
				Options: []hilp.CustomOption{
					{Cluster: "cpu0", Sec: float64(cpu), PowerW: 1},
					{Cluster: "gpu0", Sec: float64(2 + rng.Intn(cpu-2)), PowerW: 3},
					{Cluster: "dsa0", Sec: float64(1 + rng.Intn(cpu-1)), PowerW: 2},
				}},
			hilp.CustomTask{Name: name(2), App: a, Phase: 2, Deps: []hilp.CustomDep{{Task: name(1)}},
				Options: []hilp.CustomOption{{Cluster: "cpu0", Sec: float64(1 + rng.Intn(2)), PowerW: 1}}},
		)
	}
	return m
}

// serialHorizon is the makespan of running every phase on the CPU one after
// another: a feasible schedule, so the time-indexed encoding over this many
// 1 s steps always has one.
func serialHorizon(m hilp.CustomModel) int {
	h := 0
	for _, t := range m.Tasks {
		h += int(t.Options[0].Sec)
	}
	return h
}

// milpClasses stratify the models by (horizon, horizon minus the cheap lower
// bound). Each model's horizon is the makespan of the heuristic portfolio,
// the tightest horizon known to hold a schedule. Proving optimality costs
// from milliseconds to seconds between otherwise similar 2-app models, and
// these two numbers predict most of it: the horizon sets the encoding's size,
// and the heuristic's gap to the bound sets how much of the tree the search
// must close. Each round draws one model per class, in seed-shuffled order,
// so every run sees the same mix of costs while the models themselves vary.
// The five classes cost 0.04-0.08 s a model on average, so a run measures
// the 200+ ops its p95 needs, and none has a long tail: (10, 4) and horizons
// of 11 and up are left out for solves of up to 0.8 s and 43 MiB, and 3-app
// models for some that take minutes.
var milpClasses = [...][2]int{{8, 3}, {9, 2}, {9, 3}, {10, 2}, {10, 3}}

const milpRound = len(milpClasses)

type milpOp struct {
	m       hilp.CustomModel
	horizon int
	cfg     hilp.SolverConfig
}

func (op milpOp) String() string {
	return fmt.Sprintf("%s horizon %d seed %d", op.m.Name, op.horizon, op.cfg.Seed)
}

type milpPlan struct {
	rng   *rand.Rand
	round []milpOp
}

func (p *milpPlan) next() milpOp {
	if len(p.round) == 0 {
		for _, c := range p.rng.Perm(milpRound) {
			p.round = append(p.round, p.draw(milpClasses[c]))
		}
	}
	op := p.round[0]
	p.round = p.round[1:]
	return op
}

// draw samples 2-app models until one falls in class c, which takes 13 to
// 50 tries.
func (p *milpPlan) draw(c [2]int) milpOp {
	for {
		m := fig2Model(p.rng, 2)
		in, err := m.Build(1, serialHorizon(m))
		if err != nil {
			continue
		}
		s, ok := scheduler.HeuristicSchedule(in.Problem)
		if ok && s.Makespan == c[0] && s.Makespan-scheduler.LowerBound(in.Problem) == c[1] {
			return milpOp{m: m, horizon: s.Makespan,
				cfg: hilp.SolverConfig{Seed: 1 + p.rng.Int63n(1<<31), Improver: "milp"}}
		}
	}
}

type milpBench struct {
	tr   *tracing
	plan *milpPlan
	ops  []milpOp
	done []milpDone

	// Traced runs only: the encoding-build and root-LP probes.
	probes            int
	buildSec, rootSec float64
}

// milpDone keeps a solved op for the after-window checks.
type milpDone struct {
	op   milpOp
	inst *core.Instance
	res  scheduler.Result
}

func setupMILP(e *env) (bench, error) {
	b := &milpBench{tr: e.tr, plan: &milpPlan{rng: rand.New(rand.NewSource(e.seed))}}
	for i := 0; i < e.planned(500); i++ {
		b.ops = append(b.ops, b.plan.next())
	}
	return b, nil
}

func (b *milpBench) run(ctx context.Context, bud budget, l *ledger) {
	for k := 0; bud.more(k); k++ {
		for k >= len(b.ops) {
			b.ops = append(b.ops, b.plan.next())
		}
		op := b.ops[k]
		sp, c := b.tr.op()
		cfg := op.cfg
		cfg.Obs = c
		var inst *core.Instance
		var res scheduler.Result
		var err error
		t0 := time.Now()
		within(c, "core.solve", func() { inst, res, err = hilp.SolveModelContext(ctx, op.m, 1, op.horizon, cfg) })
		l.op(time.Since(t0).Seconds())
		sp.End()
		if b.record(op, inst, res, err, l) && b.tr != nil {
			b.probe(ctx, op, inst, l)
		}
	}
}

// probe times, outside the op, the two MILP stages the program opens no span
// for: building the time-indexed encoding and solving its root LP
// relaxation, which branch and bound solves before its milp-bb span opens.
func (b *milpBench) probe(ctx context.Context, op milpOp, inst *core.Instance, l *ledger) {
	t0 := time.Now()
	enc, err := timeindexed.Build(inst.Problem)
	t1 := time.Now()
	if err == nil {
		_, err = milp.SolveLP(ctx, enc.Problem)
	}
	if err != nil {
		l.fail("milp %s: probe: %v", op, err)
		return
	}
	b.probes++
	b.buildSec += t1.Sub(t0).Seconds()
	b.rootSec += time.Since(t1).Seconds()
}

// record checks one solve and records its certificate; it reports whether
// the solve passed.
func (b *milpBench) record(op milpOp, inst *core.Instance, res scheduler.Result, err error, l *ledger) bool {
	switch {
	case err != nil:
		l.fail("milp %s: %v", op, err)
	case res.Cancelled || res.Degraded || res.Method != "milp":
		l.fail("milp %s: method %q cancelled=%v degraded=%v", op, res.Method, res.Cancelled, res.Degraded)
	default:
		if verr := checkSchedule(inst.Problem, res); verr != nil {
			l.fail("milp %s: %v", op, verr)
			return false
		}
		l.certificate(res.Gap())
		b.done = append(b.done, milpDone{op: op, inst: inst, res: res})
		return true
	}
	return false
}

// check cross-checks every model against the CP solver: when both prove
// optimality the makespans agree.
func (b *milpBench) check(ctx context.Context, l *ledger) {
	for _, d := range b.done {
		cp, err := core.SolveProblem(ctx, d.inst.Problem, hilp.SolverConfig{Seed: d.op.cfg.Seed})
		if err != nil {
			l.fail("milp %s: CP cross-check: %v", d.op, err)
			continue
		}
		if d.res.Proven && cp.Proven && cp.Schedule.Makespan != d.res.Schedule.Makespan {
			l.fail("milp %s: MILP proves makespan %d, CP proves %d", d.op, d.res.Schedule.Makespan, cp.Schedule.Makespan)
		}
	}
}

func (b *milpBench) layers(l *ledger, st *spanTimes) {
	n := float64(b.probes)
	l.setLayer("timeindexed.build_s", ratio(b.buildSec, n))
	l.setLayer("milp.root_lp_s", ratio(b.rootSec, n))
	// The milp-bb span's pivot count includes the root relaxation's, so the
	// root probe's time joins its self time.
	l.setLayer("milp.pivots_per_s", ratio(float64(st.pivots), st.self["milp.bb"]+b.rootSec))
}

func (b *milpBench) close() error { return nil }
