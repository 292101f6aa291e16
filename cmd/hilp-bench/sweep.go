package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hilp"
	"hilp/internal/dse"
	"hilp/internal/journal"
	"hilp/internal/obs"
	"hilp/internal/wire"
)

// sweep: the paper's DSE loop through the sweep engine, journaled point by
// point the way hilp-dse -checkpoint does. It is the only workload where the
// engine's cross-point reuse (memo, warm starts, pruning) and the journal's
// writes and reads do most of the work. One op is one design point.

// sweepBatch is one hilp.SolveBatch call.
type sweepBatch struct {
	w     hilp.Workload
	specs []hilp.SoC
	dups  int // trailing specs that are canonical duplicates of earlier ones
	cfg   hilp.SolverConfig
}

// sweepPlan draws batches. The batches walk a sub-lattice of the §VI space
// in a fixed order — batch k sweeps workload k mod 3 (Rodinia, Default,
// Optimized) over the 63 SoCs with 1, 2 or 4 CPU cores (k/3 mod 3), no GPU or
// a 16- or 64-SM one, and 0-10 DSAs of 4 or 16 PEs — so every round of
// sweepRound batches covers the same slices, whose costs differ tenfold. Each
// round also deals every slice one of three power and one of three bandwidth
// budgets, in two orthogonal Latin squares, which the seed jitters by up to
// 10%; the seed also draws the solver seed, and which 10% of the specs are
// repeated at the end with their defaulted fields spelled out
// (Spec.Normalize), which the engine's memo must recognize.
type sweepPlan struct {
	rng   *rand.Rand
	smoke bool
	n     int
}

const sweepRound = 9

func (p *sweepPlan) next() sweepBatch {
	powerW := []float64{600, 400, 250}
	memBWGBs := []float64{800, 400, 200}
	w := paperWorkloads[p.n%3]()
	row, col := p.n%3, p.n/3%3
	space := hilp.SpaceConfig{
		CPUCores: []int{[]int{1, 2, 4}[col]},
		GPUSMs:   []int{0, 16, 64},
		DSAPEs:   []int{4, 16},
		PowerW:   powerW[(row+col)%3] * (0.9 + 0.2*p.rng.Float64()),
		MemBWGBs: memBWGBs[(row+2*col)%3] * (0.9 + 0.2*p.rng.Float64()),
	}
	p.n++
	if p.smoke {
		space.GPUSMs, space.DSAPEs, space.MaxDSAs = []int{0, 16}, []int{4}, 2
	}
	specs := hilp.DesignSpace(w, space)
	dups := (len(specs) + 5) / 10
	for _, i := range p.rng.Perm(len(specs))[:dups] {
		specs = append(specs, specs[i].Normalize())
	}
	// hilp-dse's solver settings.
	cfg := hilp.SolverConfig{Seed: 1 + p.rng.Int63n(1<<31), Effort: 0.25, Restarts: 1}
	return sweepBatch{w: w, specs: specs, dups: dups, cfg: cfg}
}

type sweepBench struct {
	tr      *tracing
	plan    *sweepPlan
	batches []sweepBatch
	dir     string
	stats   hilp.BatchStats
	appends int
	bytes   int64 // journal bytes replayed, summed over batches

	// Traced runs only: latencies of warm-started and cold solved points, and
	// of every journal append.
	warmSec, coldSec, appendSec []float64
}

func setupSweep(e *env) (bench, error) {
	b := &sweepBench{tr: e.tr, dir: e.dir, plan: &sweepPlan{rng: rand.New(rand.NewSource(e.seed)), smoke: e.smoke}}
	for i := 0; i < e.planned(40); i++ {
		b.batches = append(b.batches, b.plan.next())
	}
	return b, nil
}

func (b *sweepBench) run(ctx context.Context, bud budget, l *ledger) {
	for k := 0; bud.more(k); k++ {
		for k >= len(b.batches) {
			b.batches = append(b.batches, b.plan.next())
		}
		if err := b.runBatch(ctx, k, b.batches[k], l); err != nil {
			l.fail("sweep batch-%d: %v", k, err)
		}
	}
}

// runBatch runs one batch the way hilp-dse -checkpoint runs a sweep: it opens
// a fresh journal, journals a jobStart record, solves the batch with a
// checkpoint hook appending one record per point, closes the job, and
// replays the journal. Each batch gets its own journal, so every replay reads
// one batch. Point latency is the gap between the engine's progress
// callbacks, so it includes the point's journal append.
func (b *sweepBench) runBatch(ctx context.Context, k int, batch sweepBatch, l *ledger) (err error) {
	jobID := fmt.Sprintf("batch-%d", k)
	dir := filepath.Join(b.dir, jobID)
	defer os.RemoveAll(dir)
	sp, c := b.tr.op()
	defer sp.End()
	var jnl *journal.Journal
	within(c, "journal.open_close", func() { jnl, err = journal.Open(dir, journal.Options{}) })
	if err != nil {
		return err
	}
	defer within(c, "journal.open_close", func() { err = errors.Join(err, jnl.Close()) })
	err = b.append(c, jnl, wire.JournalRecord{Kind: wire.JournalKindJobStart, JobID: jobID,
		Start: &wire.JournalJobStart{Total: len(batch.specs)}})
	if err == nil {
		within(c, "journal.sync", func() { err = jnl.Sync() })
	}
	if err != nil {
		return err
	}

	var hookErr error
	var cur hilp.Point
	hook := func(i int, p hilp.Point) {
		var wp wire.Point
		within(c, "dse.to_wire", func() { wp = dse.ToWirePoint(p) })
		err := b.append(c, jnl, wire.JournalRecord{Kind: wire.JournalKindPoint, JobID: jobID,
			Point: &wire.JournalPoint{Index: i, Point: wp}})
		if err != nil && hookErr == nil {
			hookErr = err
		}
		cur = p
	}
	last := time.Now()
	progress := func(hilp.SweepProgress) {
		now := time.Now()
		sec := now.Sub(last).Seconds()
		last = now
		l.op(sec)
		switch {
		case b.tr == nil || cur.Pruned || cur.CacheHit:
		case cur.WarmStarted:
			b.warmSec = append(b.warmSec, sec)
		default:
			b.coldSec = append(b.coldSec, sec)
		}
	}
	res, err := hilp.SolveBatch(ctx, batch.w, batch.specs, hilp.WithSolver(batch.cfg), hilp.WithWorkers(1),
		hilp.WithPruning(true), hilp.WithCheckpoint(hook), hilp.WithProgress(progress), hilp.WithObs(c))
	if err == nil {
		err = hookErr
	}
	if err == nil {
		err = b.append(c, jnl, wire.JournalRecord{Kind: wire.JournalKindJobEnd, JobID: jobID,
			End: &wire.JournalJobEnd{Status: "done"}})
	}
	if err == nil {
		within(c, "journal.sync", func() { err = jnl.Sync() })
	}
	var jobs []*journal.JobState
	var replayed journal.ReplayStats
	if err == nil {
		within(c, "journal.replay", func() { jobs, replayed, err = journal.ReplayJobs(dir) })
	}
	if err != nil {
		return err
	}
	b.bytes += replayed.Bytes

	if res.Stats.CacheHits != batch.dups {
		l.fail("sweep %s: %d cache hits, planned %d canonical duplicates", jobID, res.Stats.CacheHits, batch.dups)
	}
	for _, p := range res.Points {
		switch {
		case p.Err != nil || p.Cancelled || p.Degraded:
			l.fail("sweep %s %s: err=%v cancelled=%v degraded=%v", jobID, p.Label, p.Err, p.Cancelled, p.Degraded)
		case p.Pruned:
			if !(p.SpeedupBound > 0) {
				l.fail("sweep %s %s: pruned without a speedup bound", jobID, p.Label)
			}
		case !p.CacheHit:
			l.certificate(p.Gap)
		}
	}
	b.stats.Points += res.Stats.Points
	b.stats.Solved += res.Stats.Solved
	b.stats.CacheHits += res.Stats.CacheHits
	b.stats.WarmStarted += res.Stats.WarmStarted
	b.stats.Pruned += res.Stats.Pruned
	if err := checkReplay(jobs, jobID, res.Points); err != nil {
		l.fail("sweep %s: %v", jobID, err)
	}
	return nil
}

// append writes one journal record under span context c.
func (b *sweepBench) append(c *obs.Context, jnl *journal.Journal, rec wire.JournalRecord) error {
	t0 := time.Now()
	var err error
	within(c, "journal.append", func() { err = jnl.Append(rec) })
	if b.tr != nil {
		b.appendSec = append(b.appendSec, time.Since(t0).Seconds())
	}
	b.appends++
	return err
}

// checkReplay confirms the journal replays a batch exactly: a closed job
// whose point records equal the points the engine returned.
func checkReplay(jobs []*journal.JobState, jobID string, points []hilp.Point) error {
	for _, st := range jobs {
		if st.JobID != jobID {
			continue
		}
		if st.Start == nil || st.Start.Total != len(points) || st.End == nil || st.End.Status != "done" ||
			len(st.Points) != len(points) {
			return fmt.Errorf("journal replays %d of %d points, start %v, end %v",
				len(st.Points), len(points), st.Start != nil, st.End != nil)
		}
		for i, p := range points {
			got, err1 := json.Marshal(st.Points[i])
			want, err2 := json.Marshal(dse.ToWirePoint(p))
			if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
				return fmt.Errorf("journaled point %d differs from the engine's", i)
			}
		}
		return nil
	}
	return fmt.Errorf("journal replay lacks the job")
}

func (b *sweepBench) check(context.Context, *ledger) {}

func (b *sweepBench) layers(l *ledger, _ *spanTimes) {
	n := float64(b.stats.Points)
	l.setLayer("dse.solved_frac", ratio(float64(b.stats.Solved), n))
	l.setLayer("dse.cache_hit_frac", ratio(float64(b.stats.CacheHits), n))
	l.setLayer("dse.warm_started_frac", ratio(float64(b.stats.WarmStarted), n))
	l.setLayer("dse.pruned_frac", ratio(float64(b.stats.Pruned), n))
	if len(b.warmSec) > 0 && len(b.coldSec) > 0 {
		l.setLayer("dse.warm_speedup", ratio(sum(b.coldSec)/float64(len(b.coldSec)), sum(b.warmSec)/float64(len(b.warmSec))))
	}
	l.setLayer("journal.appends_per_op", ratio(float64(b.appends), n))
	l.setLayer("journal.bytes_per_op", ratio(float64(b.bytes), n))
	l.setLayer("journal.append_p99_to_p50", ratio(quantile(b.appendSec, 0.99), quantile(b.appendSec, 0.5)))
}

func (b *sweepBench) close() error { return nil }
