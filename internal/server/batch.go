package server

import (
	"context"
	"net/http"

	"hilp"
	"hilp/internal/rodinia"
	"hilp/internal/soc"
	"hilp/internal/wire"
)

// handleBatch serves POST /v1/batch: a synchronous batched solve over a list
// of specs (or an enumerated space) through the sweep engine — canonical-
// model memoization and neighbor warm starts on by default, certified
// dominance pruning opt-in. Unlike /v1/sweep it answers in one round trip
// and its response is LRU-cached like /v1/evaluate; unlike the engine-less
// handlers it admits the whole batch on one pool token and fans out
// internally across Config.Workers goroutines. Its specs resolve inside the
// validate stage.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var (
		req      wire.BatchRequest
		workload rodinia.Workload
		specs    []soc.Spec
	)
	s.serveCachedSolve(w, r, cachedSolve{
		req:        &req,
		version:    &req.SchemaVersion,
		timeoutSec: &req.TimeoutSec,
		validate: func() (apiErr *apiError) {
			if apiErr = checkSolver(req.Solver); apiErr != nil {
				return apiErr
			}
			workload, specs, apiErr = resolveSpecs(req.Workload, req.Specs, req.Space)
			return apiErr
		},
		solve: func(ctx context.Context) (solveOutcome, *apiError) {
			// The batch holds one pool token for its whole duration; the
			// engine fans out across Config.Workers internally, so total
			// solve concurrency stays bounded by the pool either way.
			opts := []hilp.Option{
				hilp.WithObs(s.obs),
				hilp.WithWorkers(s.cfg.Workers),
			}
			if req.Profile != nil {
				opts = append(opts, hilp.WithProfile(req.Profile.ToProfile()))
			}
			if req.Solver != nil {
				opts = append(opts, hilp.WithSolver(req.Solver.ToConfig()))
			}
			if req.Cache != nil {
				opts = append(opts, hilp.WithCache(*req.Cache))
			}
			if req.WarmStart != nil {
				opts = append(opts, hilp.WithWarmStart(*req.WarmStart))
			}
			if req.Pruning {
				opts = append(opts, hilp.WithPruning(true))
			}
			res, err := hilp.SolveBatch(ctx, workload, specs, opts...)
			if err != nil {
				return solveOutcome{}, solveErr(err)
			}
			out := solveOutcome{solver: "batch", cacheable: true}
			for _, p := range res.Points {
				out.cancelled = out.cancelled || p.Cancelled
				if p.Err != nil || p.Degraded {
					out.cacheable = false
				}
			}
			resp := wire.BatchResponse{
				SchemaVersion: wire.SchemaVersion,
				Stats: wire.BatchStats{
					Points:      res.Stats.Points,
					Solved:      res.Stats.Solved,
					CacheHits:   res.Stats.CacheHits,
					WarmStarted: res.Stats.WarmStarted,
					Pruned:      res.Stats.Pruned,
				},
			}
			resp.Points, resp.Pareto = wirePoints(res.Points)
			out.resp = resp
			return out, nil
		},
	})
}
