package dse

import (
	"context"
	"log/slog"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"hilp/internal/core"
	"hilp/internal/faults"
	"hilp/internal/obs"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
	"hilp/internal/wire"
)

// BatchOptions configures the sweep engine (Run, RunHILP). The zero value
// reproduces a plain cold sweep: every point solved independently, in input
// order, with no cross-point reuse.
type BatchOptions struct {
	// Workers is the goroutine fan-out; < 1 selects runtime.GOMAXPROCS(0).
	Workers int
	// Cache enables canonical-model memoization: points whose canonical
	// (workload, normalized spec) model hashes equal an earlier point's are
	// replayed byte-identically from that point instead of re-solved.
	Cache bool
	// WarmStart orders the sweep as a walk over the spec lattice and seeds
	// each point's search with the repaired incumbent schedule of its
	// nearest already-solved neighbor, starting its adaptive-resolution
	// loop at the step that neighbor ended on (HILP evaluations only).
	WarmStart bool
	// Prune skips points whose resource vector is dominated by an
	// already-solved point that met the gap target, when a certified
	// discretization-independent bound proves they could not enter the
	// Pareto front. Skipped points come back with Point.Pruned set and a
	// SpeedupBound certificate instead of solved metrics (HILP only).
	Prune bool
	// Obs receives the sweep span and per-point metrics; nil disables them.
	Obs *obs.Context
	// OnProgress, when non-nil, is called after every completed point.
	// Calls are serialized and Done is strictly increasing.
	OnProgress func(Progress)
	// OnPoint, when non-nil, is called once per completed point with its
	// input index — the checkpoint hook the crash-recovery journal appends
	// from. Calls are serialized (under the run's mutex) and cover solved,
	// cached, and pruned points; points the engine never dispatched (context
	// cancelled) and points pre-filled from Resume are not reported, so a
	// journal wired to OnPoint records each recovered result exactly once.
	OnPoint func(index int, p Point)
	// Resume pre-fills completed points from a prior run, keyed by input
	// index: they are marked Resumed, counted in Stats.Resumed, and excluded
	// from dispatch, so a resumed batch re-solves strictly fewer points.
	// Identity fields are recomputed from the current spec; callers are
	// responsible for only resuming against the same model (see the journal
	// ModelKey check in the binaries).
	Resume map[int]Point

	// hilp carries the model-aware context (workload, profile, solver
	// config) that warm starts and pruning need; nil for generic
	// evaluators, installed by RunHILP.
	hilp *hilpBatch
}

// hilpBatch is the HILP-specific half of a batch: what RunHILP knows that a
// generic Evaluator hides.
type hilpBatch struct {
	w         rodinia.Workload
	profile   core.Profile
	cfg       scheduler.Config
	seqSec    float64
	gapTarget float64
}

// BatchStats summarizes what the engine reused across one batch.
type BatchStats struct {
	// Points is the number of requested points; Solved is how many ran a
	// full solve (the rest were cache hits, pruned, or never dispatched).
	Points int `json:"points"`
	Solved int `json:"solved"`
	// CacheHits counts points replayed from a canonically-equivalent
	// earlier point; WarmStarted counts solves seeded with a neighbor's
	// schedule; Pruned counts points skipped with a certified bound.
	CacheHits   int `json:"cacheHits"`
	WarmStarted int `json:"warmStarted"`
	Pruned      int `json:"pruned"`
	// Resumed counts points pre-filled from a crash-recovery journal
	// (BatchOptions.Resume) instead of re-solved.
	Resumed int `json:"resumed,omitempty"`
}

// BatchResult is the outcome of Run/RunHILP: points in input order plus the
// engine's reuse statistics.
type BatchResult struct {
	Points []Point
	Stats  BatchStats
}

// RunHILP runs the sweep engine with full cross-point reuse: canonical-model
// memoization, neighbor warm starts, and certified dominance pruning, per
// opts. It is the engine behind hilp.SolveBatch and the hilp-serve
// /v1/batch route. With every feature disabled each point is one
// independent core.Solve, the plain cold sweep. The sweep span and metrics
// go to opts.Obs, or to cfg.Obs when opts.Obs is nil.
//
// Warm-started and pruned batches are result-equivalent to a cold sweep:
// every solved point carries its own valid gap certificate (warm seeds only
// change where the search starts, in schedule and resolution, and a warm
// shortcut still certifies the gap target against the instance lower
// bound), and every pruned point
// carries a certified speedup bound proving it could not have entered the
// (area, speedup) Pareto front. With Workers > 1 the warm-start donor
// choice depends on completion order, so solved makespans may differ across
// runs within their gap certificates; use one worker for bit-reproducible
// sweeps.
func RunHILP(ctx context.Context, w rodinia.Workload, specs []soc.Spec, profile core.Profile, cfg scheduler.Config, opts BatchOptions) BatchResult {
	gt := cfg.GapTarget
	if gt == 0 {
		gt = 0.10
	}
	if opts.Obs == nil && cfg.Obs != nil {
		opts.Obs = cfg.Obs
	}
	opts.hilp = &hilpBatch{w: w, profile: profile, cfg: cfg, seqSec: w.SequentialSingleCoreSec(), gapTarget: gt}
	return Run(ctx, specs, opts, nil)
}

// Run is the engine's generic entry point: it evaluates every spec with
// eval (ignored when opts was built by RunHILP), honoring Workers, Obs,
// OnProgress, and — for canonically identical specs — Cache. WarmStart and
// Prune require model knowledge and are only active under RunHILP.
// Points come back in input order. Failed evaluations carry their error in
// Point.Err and are skipped by ParetoFront.
//
// Cancelling ctx stops the engine dispatching new specs: in-flight
// evaluations finish (returning their best incumbents — see Evaluator), and
// every spec never dispatched comes back with Point.Err set to the context
// error, so completed points are preserved and unevaluated ones are
// distinguishable.
func Run(ctx context.Context, specs []soc.Spec, opts BatchOptions, eval Evaluator) BatchResult {
	if opts.hilp == nil {
		opts.WarmStart = false
		opts.Prune = false
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	octx := opts.Obs
	sp := octx.StartSpan("sweep").ArgInt("points", len(specs)).ArgInt("workers", workers)
	defer sp.End()
	if sp.Active() {
		if id := obs.RequestID(ctx); id != "" {
			sp.ArgStr("req", id)
		}
		if opts.Cache || opts.WarmStart || opts.Prune {
			sp.ArgStr("engine", engineLabel(opts))
		}
	}
	octx.Log(ctx, slog.LevelInfo, "sweep: starting",
		"points", len(specs), "workers", workers,
		"cache", opts.Cache, "warmStart", opts.WarmStart, "prune", opts.Prune)
	octx.Publish(obs.BusEvent{Kind: "sweep", Name: "start", Req: obs.RequestID(ctx), Total: len(specs)})

	r := &batchRun{
		ctx:     ctx,
		specs:   specs,
		opts:    opts,
		eval:    eval,
		octx:    octx,
		workers: workers,
		points:  make([]Point, len(specs)),
		start:   time.Now(),
		hasBus:  octx != nil && octx.Bus != nil,
	}
	r.timed = opts.OnProgress != nil || (octx != nil && octx.Metrics != nil) || r.hasBus
	r.parentID = obs.RequestID(ctx)
	r.stats.Points = len(specs)
	r.norm = make([]soc.Spec, len(specs))
	r.vecs = make([]latticeVec, len(specs))
	for i := range specs {
		r.norm[i] = specs[i].Normalize()
		r.vecs[i] = vecOf(r.norm[i])
	}

	// Pre-fill resumed points (crash recovery): their metrics replay
	// verbatim from the prior run, their identity fields are recomputed from
	// the current spec, and they never reach the dispatch order. Indices
	// ascend so resume bookkeeping is deterministic.
	isResumed := make([]bool, len(specs))
	for i := range specs {
		rp, ok := opts.Resume[i]
		if !ok {
			continue
		}
		rp.Spec = specs[i]
		rp.Label = specs[i].Label()
		rp.AreaMM2 = specs[i].AreaMM2()
		rp.Mix = Classify(specs[i])
		rp.Resumed = true
		r.points[i] = rp
		isResumed[i] = true
		r.stats.Resumed++
		octx.Counter(obs.MSweepPointsResumed).Inc()
		r.finishPoint(i, rp, 0, "resumed")
	}

	// The walk order groups the lattice family-by-family (cores, SMs, PE
	// class) with the largest DSA ladder rung first, so each point's
	// nearest solved neighbor is genuinely near and dominance donors are
	// solved before the points they could prune.
	order := make([]int, 0, len(specs))
	for i := range specs {
		if !isResumed[i] {
			order = append(order, i)
		}
	}
	if opts.WarmStart || opts.Prune {
		sort.SliceStable(order, func(a, b int) bool { return walkLess(r.vecs[order[a]], r.vecs[order[b]]) })
	}

	// Canonical-model memoization is a two-pass split: the first index of
	// each canonical key is the owner and solves normally; followers replay
	// the owner's result byte-identically when it is clean, and fall back
	// to a second solve round when it is not (errored, cancelled, or
	// degraded results are never cached, mirroring the hilp-serve LRU).
	owners := order
	followerOf := map[int][]int{}
	if opts.Cache {
		owners = owners[:0:0]
		firstByKey := map[string]int{}
		for _, i := range order {
			k := r.pointKey(i)
			if k == "" {
				owners = append(owners, i)
				continue
			}
			if o, dup := firstByKey[k]; dup {
				followerOf[o] = append(followerOf[o], i)
			} else {
				firstByKey[k] = i
				owners = append(owners, i)
			}
		}
	}

	r.dispatch(owners)

	var second []int
	for _, o := range owners {
		for _, f := range followerOf[o] {
			op := r.points[o]
			if op.Err == nil && !op.Cancelled && !op.Degraded {
				cp := op
				cp.Spec = specs[f]
				cp.Label = specs[f].Label()
				cp.AreaMM2 = specs[f].AreaMM2()
				cp.Mix = Classify(specs[f])
				cp.CacheHit = true
				r.points[f] = cp
				r.mu.Lock()
				r.stats.CacheHits++
				r.mu.Unlock()
				octx.Counter(obs.MSweepCacheHits).Inc()
				r.finishPoint(f, cp, 0, "cached")
			} else {
				second = append(second, f)
			}
		}
	}
	r.dispatch(second)

	if r.hasBus {
		status := "done"
		if ctx.Err() != nil {
			status = "cancelled"
		}
		r.mu.Lock()
		done := r.done
		r.mu.Unlock()
		octx.Publish(obs.BusEvent{Kind: "sweep", Name: "done", Req: r.parentID,
			Done: done, Total: len(specs), DurSec: time.Since(r.start).Seconds(), Status: status})
	}
	return BatchResult{Points: r.points, Stats: r.stats}
}

func engineLabel(o BatchOptions) string {
	s := ""
	if o.Cache {
		s += "cache+"
	}
	if o.WarmStart {
		s += "warm+"
	}
	if o.Prune {
		s += "prune+"
	}
	if s == "" {
		return "cold"
	}
	return s[:len(s)-1]
}

// batchRun is one engine run's shared state.
type batchRun struct {
	ctx     context.Context
	specs   []soc.Spec
	norm    []soc.Spec // specs[i].Normalize(), the canonical lattice form
	vecs    []latticeVec
	opts    BatchOptions
	eval    Evaluator
	octx    *obs.Context
	workers int
	points  []Point
	start   time.Time

	timed    bool
	hasBus   bool
	parentID string

	mu      sync.Mutex // guards solved, stats, progress state, lbSec
	solved  []solvedRec
	stats   BatchStats
	done    int
	best    Point
	hasBest bool
	lbSec   map[int]float64 // memoized AnalyticLowerBoundSec per index
}

// solvedRec is what one completed solve contributes to later points: a warm
// hint, a dominance donor, or a pruning certifier.
type solvedRec struct {
	idx     int
	vec     latticeVec
	area    float64
	speedup float64
	// clean is Err == nil && !Cancelled && !Degraded: the metrics are
	// converged and trustworthy, so the point can certify pruning.
	clean bool
	// gapMet is clean && Gap <= gapTarget: the point qualifies as a
	// dominance donor.
	gapMet bool
	hint   *scheduler.WarmStart
	// stepSec is the resolution the point's adaptive loop ended at; a point
	// warm-started from hint opens its own loop there.
	stepSec float64
}

// pointKey is the canonical-model hash of point i: the workload, profile,
// and solver identity (constant across the run, included for integrity)
// plus the normalized spec. Empty when the spec cannot be canonically
// marshaled (NaN fields); such points are never deduplicated.
func (r *batchRun) pointKey(i int) string {
	type canonical struct {
		Workload *wire.Workload     `json:"workload,omitempty"`
		Profile  *wire.Profile      `json:"profile,omitempty"`
		Solver   *wire.SolverConfig `json:"solver,omitempty"`
		Spec     wire.SoC           `json:"spec"`
	}
	c := canonical{Spec: wire.FromSpec(r.norm[i])}
	if h := r.opts.hilp; h != nil {
		w := wire.FromWorkload(h.w)
		p := wire.FromProfile(h.profile)
		s := wire.FromConfig(h.cfg)
		c.Workload, c.Profile, c.Solver = &w, &p, &s
	}
	key, err := wire.CanonicalKey(c)
	if err != nil {
		return ""
	}
	return key
}

// dispatch fans the given point indices out across the worker pool,
// stopping (and marking the remainder with ctx.Err) once the context is
// done.
func (r *batchRun) dispatch(order []int) {
	if len(order) == 0 {
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer r.octx.Guard("sweep-worker")
			defer wg.Done()
			for i := range jobs {
				r.runPoint(i)
			}
		}()
	}
	dispatched := len(order)
feed:
	for k, i := range order {
		select {
		case jobs <- i:
		case <-r.ctx.Done():
			dispatched = k
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	for _, i := range order[dispatched:] {
		p := newPoint(r.specs[i])
		p.Err = r.ctx.Err()
		r.points[i] = p
	}
}

// runPoint evaluates one point: prune check, warm-start donor selection,
// the solve itself (panic-isolated, fault-keyed), and bookkeeping.
func (r *batchRun) runPoint(i int) {
	var t0 time.Time
	if r.timed {
		t0 = time.Now()
	}
	pid := r.pointID(i)

	if r.opts.Prune {
		r.mu.Lock()
		p, pruned := r.pruneCheck(i)
		if pruned {
			r.stats.Pruned++
			r.mu.Unlock()
			p.RequestID = pid
			r.points[i] = p
			r.octx.Counter(obs.MSweepPruned).Inc()
			var durSec float64
			if r.timed {
				durSec = time.Since(t0).Seconds()
			}
			r.finishPoint(i, p, durSec, "pruned")
			return
		}
		r.mu.Unlock()
	}

	var hint *scheduler.WarmStart
	var hintStep float64
	if r.opts.WarmStart {
		r.mu.Lock()
		hint, hintStep = r.nearestHint(i)
		r.mu.Unlock()
	}

	p, donorOut, donorStep := r.evalOne(i, pid, hint, hintStep)
	p.RequestID = pid
	r.points[i] = p
	if r.opts.Cache {
		r.octx.Counter(obs.MSweepCacheMisses).Inc()
	}

	clean := p.Err == nil && !p.Cancelled && !p.Degraded
	r.mu.Lock()
	r.stats.Solved++
	if p.WarmStarted {
		r.stats.WarmStarted++
	}
	gapMet := false
	if h := r.opts.hilp; h != nil {
		gapMet = clean && p.Gap <= h.gapTarget
	}
	r.solved = append(r.solved, solvedRec{
		idx: i, vec: r.vecs[i], area: p.AreaMM2, speedup: p.Speedup,
		clean: clean, gapMet: gapMet, hint: donorOut, stepSec: donorStep,
	})
	r.mu.Unlock()

	var durSec float64
	if r.timed {
		durSec = time.Since(t0).Seconds()
	}
	status := "ok"
	switch {
	case p.Err != nil:
		status = "failed"
	case p.Cancelled:
		status = "cancelled"
	case p.Degraded:
		status = "degraded"
	}
	r.finishPoint(i, p, durSec, status)
}

// evalOne runs the evaluation for point i with panic isolation and
// per-point fault keying, mirroring the classic sweep worker. For HILP
// batches it threads the warm hint into the solver, starting the adaptive
// loop at the hint's resolution hintStep, and extracts the solved schedule
// and its final resolution as a donor hint for later points.
func (r *batchRun) evalOne(i int, pid string, hint *scheduler.WarmStart, hintStep float64) (p Point, donor *scheduler.WarmStart, donorStep float64) {
	pctx := faults.WithKey(r.ctx, uint64(i))
	pctx = obs.WithRequestID(pctx, pid)
	defer func() {
		if rec := recover(); rec != nil {
			pe := scheduler.NewPanicError("dse.Run", rec)
			r.octx.Counter(obs.MSweepPanics).Inc()
			r.octx.Log(pctx, slog.LevelError, "sweep: point panicked",
				"point", i, "spec", r.specs[i].Label(), "error", pe.Error(), "stack", string(pe.Stack))
			p = newPoint(r.specs[i])
			p.Err = pe
			donor, donorStep = nil, 0
		}
	}()
	h := r.opts.hilp
	if h == nil {
		return r.eval(pctx, r.specs[i]), nil, 0
	}
	cfg := h.cfg
	profile := h.profile
	if hint != nil {
		cfg.Warm = hint
		// The donor already found the rung its chain ended on, and its
		// nearest lattice neighbour usually ends on the same one: start
		// there instead of walking the coarse rungs again. The §III-D rules
		// still refine or coarsen from it. pointKey keeps the batch profile.
		profile.InitialStepSec = hintStep
	} else if r.opts.WarmStart {
		// No donor yet: a zero-value hint still enables refinement
		// self-warming inside the adaptive-resolution loop.
		cfg.Warm = &scheduler.WarmStart{}
	}
	res, err := core.Solve(pctx, h.w, r.specs[i], profile, cfg)
	if p = pointOf(r.specs[i], res, err); err != nil {
		return p, nil, 0
	}
	p.WarmStarted = hint != nil
	return p, res.WarmHint(), res.StepSec
}

// pruneCheck decides, under r.mu, whether point i can be skipped with a
// certificate. Two solved points participate:
//
//   - a dominator A whose resource vector covers i's (every schedule of i
//     embeds into A, so i cannot beat A's certified makespan) and which met
//     the gap target — the trigger the lattice walk sets up;
//   - a certifier C with area <= i's whose achieved speedup already meets
//     i's certified best-possible speedup seq/AnalyticLowerBoundSec(i) —
//     the discretization-independent proof that i is Pareto-redundant.
//
// Only when both exist is the point pruned, recording the bound and the
// dominator's label.
func (r *batchRun) pruneCheck(i int) (Point, bool) {
	h := r.opts.hilp
	dominator := -1
	for _, s := range r.solved {
		if s.gapMet && specDominates(r.norm[s.idx], r.norm[i]) {
			dominator = s.idx
			break
		}
	}
	if dominator < 0 {
		return Point{}, false
	}
	if r.lbSec == nil {
		r.lbSec = map[int]float64{}
	}
	lb, okLB := r.lbSec[i]
	if !okLB {
		lb = core.AnalyticLowerBoundSec(h.w, r.norm[i])
		r.lbSec[i] = lb
	}
	bound := math.Inf(1)
	if lb > 0 {
		bound = h.seqSec / lb
	}
	if math.IsInf(bound, 1) {
		return Point{}, false
	}
	area := r.specs[i].AreaMM2()
	for _, s := range r.solved {
		if s.clean && s.area <= area+1e-9 && s.speedup+1e-9 >= bound {
			p := newPoint(r.specs[i])
			p.Pruned = true
			p.PrunedBy = r.specs[dominator].Label()
			p.SpeedupBound = bound
			return p, true
		}
	}
	return Point{}, false
}

// nearestHint returns the warm-start hint of the solved point closest to i
// on the spec lattice and the resolution that point ended at, or nil when
// none is available yet.
func (r *batchRun) nearestHint(i int) (*scheduler.WarmStart, float64) {
	var best *scheduler.WarmStart
	var bestStep float64
	bestD := 0
	for _, s := range r.solved {
		if s.hint == nil {
			continue
		}
		d := latticeDist(s.vec, r.vecs[i])
		if best == nil || d < bestD {
			best, bestStep, bestD = s.hint, s.stepSec, d
		}
	}
	return best, bestStep
}

// pointID mirrors the classic sweep's correlation-ID scheme: request-scoped
// sweeps extend the parent ID, standalone observed sweeps get fresh IDs,
// fully disabled sweeps stay ID-free.
func (r *batchRun) pointID(i int) string {
	if r.parentID != "" {
		return r.parentID + "/p" + strconv.Itoa(i)
	}
	if r.octx.Enabled() {
		return obs.NewRequestID()
	}
	return ""
}

// finishPoint does the shared per-point bookkeeping: counters, latency,
// the checkpoint hook, progress callback, and bus events.
func (r *batchRun) finishPoint(i int, p Point, durSec float64, status string) {
	r.octx.Counter(obs.MSweepPoints).Inc()
	if p.Err != nil {
		r.octx.Counter(obs.MSweepPointsFailed).Inc()
	}
	if r.timed {
		r.octx.Histogram(obs.MSweepPointSec).ObserveEx(durSec, p.RequestID)
	}
	if r.opts.OnPoint == nil && r.opts.OnProgress == nil && !r.hasBus {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done++
	// Resumed points are already in the journal; re-reporting them would
	// duplicate their records on every restart.
	if r.opts.OnPoint != nil && status != "resumed" {
		r.opts.OnPoint(i, p)
	}
	improved := p.Err == nil && !p.Pruned && (!r.hasBest || p.Speedup > r.best.Speedup)
	if improved {
		r.best = p
		r.hasBest = true
	}
	if r.hasBus {
		r.octx.Publish(obs.BusEvent{Kind: "point", Name: p.Label, Req: p.RequestID, Iter: i,
			Value: p.Speedup, Gap: p.Gap, Done: r.done, Total: len(r.specs), DurSec: durSec, Status: status})
		if improved {
			r.octx.Publish(obs.BusEvent{Kind: "incumbent", Name: r.best.Label, Req: p.RequestID,
				Value: r.best.Speedup, Gap: r.best.Gap, Done: r.done, Total: len(r.specs)})
		}
	}
	if r.opts.OnProgress != nil {
		prog := Progress{
			Done:    r.done,
			Total:   len(r.specs),
			Best:    r.best,
			HasBest: r.hasBest,
			Elapsed: time.Since(r.start),
		}
		if r.done > 0 {
			prog.ETA = prog.Elapsed / time.Duration(r.done) * time.Duration(len(r.specs)-r.done)
		}
		r.opts.OnProgress(prog)
	}
}

// latticeVec positions a spec on the design-space lattice for walk ordering
// and nearest-neighbor selection.
type latticeVec struct {
	cores, sms, maxPE, ndsa, sumPE int
}

func vecOf(n soc.Spec) latticeVec {
	v := latticeVec{cores: n.CPUCores, sms: n.GPUSMs, ndsa: len(n.DSAs)}
	for _, d := range n.DSAs {
		v.sumPE += d.PEs
		if d.PEs > v.maxPE {
			v.maxPE = d.PEs
		}
	}
	return v
}

// walkLess orders the lattice family-major: CPU cores, then GPU SMs, then
// the DSA PE class, then descending DSA count — so the fully-populated rung
// of each DSA ladder is solved first (the family's dominance donor) and
// subsequent rungs warm-start from an immediate neighbor.
func walkLess(a, b latticeVec) bool {
	if a.cores != b.cores {
		return a.cores < b.cores
	}
	if a.sms != b.sms {
		return a.sms < b.sms
	}
	if a.maxPE != b.maxPE {
		return a.maxPE < b.maxPE
	}
	if a.ndsa != b.ndsa {
		return a.ndsa > b.ndsa
	}
	return a.sumPE > b.sumPE
}

// latticeDist is a weighted L1 distance over the lattice coordinates,
// weighting the dimensions that reshape the scheduling instance most (CPU
// cores change every task's option set; one DSA more or less changes one
// task's).
func latticeDist(a, b latticeVec) int {
	return 32*abs(a.cores-b.cores) + 2*abs(a.sms-b.sms) + 8*abs(a.ndsa-b.ndsa) +
		4*abs(a.maxPE-b.maxPE) + abs(a.sumPE-b.sumPE)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// specDominates reports whether every feasible schedule of b is feasible on
// a unchanged (identity option mapping modulo cluster renumbering), so b's
// optimal makespan is at least a's. That requires b's option set to embed
// into a's with equal durations and demands and a's capacities to cover
// b's:
//
//   - equal CPU core count (the parallel-CPU option "cpu-xN" exists only at
//     exactly N cores), unless b has a single core and thus no parallel
//     option;
//   - equal GPU size with a superset of DVFS points, unless b has no GPU
//     (bigger GPUs are faster but draw more power, so they do not dominate
//     under a power budget);
//   - b's DSAs present on a with identical PE counts and advantage (same
//     reason), a may add extra DSAs;
//   - power and bandwidth budgets at least b's.
func specDominates(a, b soc.Spec) bool {
	if a.CPUCores < b.CPUCores {
		return false
	}
	if a.CPUCores != b.CPUCores && b.CPUCores != 1 {
		return false
	}
	if b.GPUSMs > 0 {
		if a.GPUSMs != b.GPUSMs {
			return false
		}
		if !freqSuperset(a.GPUFrequenciesMHz, b.GPUFrequenciesMHz) {
			return false
		}
	}
	if len(b.DSAs) > 0 {
		if a.DSAAdvantage != b.DSAAdvantage {
			return false
		}
		for _, d := range b.DSAs {
			ad, ok := a.DSAFor(d.Target)
			if !ok || ad.PEs != d.PEs {
				return false
			}
		}
	}
	return a.PowerBudgetWatts >= b.PowerBudgetWatts && a.MemBandwidthGBs >= b.MemBandwidthGBs
}

func freqSuperset(a, b []float64) bool {
	for _, f := range b {
		found := false
		for _, g := range a {
			if g == f {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
