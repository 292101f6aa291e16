package scheduler

import (
	"context"
	"fmt"
	"strings"
)

// An improver is Solve's improve stage, the search that produces the
// incumbent. It owns its iteration budget and the perturbation of core's
// fault-tolerant retry.
type improver interface {
	// improve searches p, seeded with warm when its lists are set. cfg is
	// the caller's Config with Obs under the solve span; retry asks for the
	// settings of a second attempt after a transient failure.
	improve(ctx context.Context, p *Problem, cfg Config, warm candidate, retry bool) (outcome, error)
	// certifies reports whether the improver certifies its own outcome, as
	// the MILP's branch and bound does. Solve then takes its bound as it is
	// and skips the stages that serve a heuristic search: the warm start,
	// justification, destructive lower bounding and exact.
	certifies() bool
}

// outcome is what an improver hands back to Solve: its incumbent, a lower
// bound it proved (0 if none), and whether the search stopped early below
// Config.refineBelow. Solve calls the incumbent proven when the bound meets
// its makespan, whichever improver found it.
type outcome struct {
	best    Schedule
	bound   int
	stopped bool
}

// improvers is the improver table, read only by Improver.
var improvers = []struct {
	name string
	imp  improver
}{
	{"anneal", search(func(ctx context.Context, p *Problem, cfg Config, warm candidate) (Schedule, bool) {
		return Anneal(ctx, p, AnnealConfig{Iterations: int(cfg.Effort * float64(2000+400*len(p.Tasks))), Restarts: cfg.Restarts,
			Seed: cfg.Seed, SeedList: warm.list, SeedOpts: warm.opts, StopBelow: cfg.refineBelow, Obs: cfg.Obs})
	})},
	{"tabu", search(func(ctx context.Context, p *Problem, cfg Config, warm candidate) (Schedule, bool) {
		return TabuSearch(ctx, p, TabuConfig{Iterations: int(cfg.Effort * float64(1000+150*len(p.Tasks))),
			Seed: cfg.Seed, SeedList: warm.list, SeedOpts: warm.opts, StopBelow: cfg.refineBelow, Obs: cfg.Obs})
	})},
	{"milp", timeIndexed{}},
}

// Improver looks name up in the improver table ("" selects anneal) and
// returns Solve run with that improver; its retry argument asks for the
// improver's own perturbation of a second attempt after a transient failure
// (a new seed for anneal and tabu, looser tolerances for the MILP). It is the
// one place improver names are read: Solve, core's fault-tolerant chain and
// the up-front checks of hilp.Solve and hilp-serve all go through it. An
// unknown name is an error that lists the table.
func Improver(name string) (func(ctx context.Context, p *Problem, cfg Config, retry bool) (Result, error), error) {
	if name == "" {
		name = improvers[0].name
	}
	names := make([]string, len(improvers))
	for i, e := range improvers {
		if e.name == name {
			return func(ctx context.Context, p *Problem, cfg Config, retry bool) (Result, error) {
				return solve(ctx, p, cfg, e.name, e.imp, retry)
			}, nil
		}
		names[i] = e.name
	}
	last := len(names) - 1
	return nil, fmt.Errorf("scheduler: unknown improver %q (want %s or %s)", name, strings.Join(names[:last], ", "), names[last])
}

// search is a heuristic improver: a metaheuristic run from the priority-rule
// portfolio, anneal or tabu. It fills their budget defaults (Effort 1,
// Restarts 2). A retry gets a different seed, which reshuffles every
// randomized component (ill-conditioned search trajectories rarely repeat),
// and runs in full: only a first attempt's early exit can be replayed by
// core's re-solve.
type search func(ctx context.Context, p *Problem, cfg Config, warm candidate) (Schedule, bool)

func (search) certifies() bool { return false }

func (run search) improve(ctx context.Context, p *Problem, cfg Config, warm candidate, retry bool) (outcome, error) {
	if cfg.Effort == 0 {
		cfg.Effort = 1
	}
	if cfg.Restarts == 0 {
		cfg.Restarts = 2
	}
	if retry {
		cfg.Seed = cfg.Seed*6364136223846793005 + 1442695040888963407
		cfg.refineBelow = 0
	}
	best, ok := run(ctx, p, cfg, warm)
	if !ok {
		return outcome{}, fmt.Errorf("%w: a task's every option exceeds a resource capacity", ErrInfeasible)
	}
	return outcome{best: best, stopped: best.Makespan < cfg.refineBelow}, nil
}
