package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"hilp"
	"hilp/internal/dse"
	"hilp/internal/journal"
	"hilp/internal/obs"
	"hilp/internal/wire"
)

// RecoveryStats summarizes what Recover found in the journal.
type RecoveryStats struct {
	// Records and Torn come from the replay pass (see journal.ReplayStats).
	Records int
	Torn    bool
	// Jobs is the number of journaled jobs seen; Terminal of those finished
	// before the crash and were re-registered with their results rebuilt;
	// Resumed were interrupted and re-entered the worker pool with
	// ResumedPoints completed points replayed instead of re-solved.
	Jobs          int
	Terminal      int
	Resumed       int
	ResumedPoints int
}

// Recover replays the crash-recovery journal and opens it for appending. The
// binary calls it once, after New and before serving:
//
//   - terminal jobs (jobEnd recorded) are re-registered with their results
//     rebuilt from the journaled points, so GET /v1/jobs/{id} keeps answering
//     across restarts and idempotency keys keep deduplicating;
//   - interrupted jobs re-enter the worker pool with every clean journaled
//     point pre-filled (hilp.WithResume), re-solving strictly fewer points
//     than they recover. A job whose journaled model key no longer matches
//     its rebuilt request is marked failed with a field-addressed validation
//     error instead of splicing mismatched results;
//   - with Config.JournalDir empty this is a no-op.
//
// Without the Recover call, journaling stays off even when JournalDir is set.
func (s *Server) Recover() (RecoveryStats, error) {
	var rs RecoveryStats
	if s.cfg.JournalDir == "" {
		return rs, nil
	}
	if s.journal != nil {
		return rs, errors.New("server: Recover called twice")
	}
	start := time.Now()
	jobs, stats, err := journal.ReplayJobs(s.cfg.JournalDir)
	rs.Records, rs.Torn = stats.Records, stats.Torn
	s.obs.Counter(obs.MJournalReplayRecords).Add(int64(stats.Records))
	if stats.Torn {
		s.obs.Counter(obs.MJournalTornTails).Inc()
	}
	if err != nil {
		return rs, fmt.Errorf("server: journal replay: %w", err)
	}
	jr, err := journal.Open(s.cfg.JournalDir, journal.Options{Obs: s.obs})
	if err != nil {
		return rs, fmt.Errorf("server: %w", err)
	}
	s.journal = jr
	for _, st := range jobs {
		if st.Start == nil || st.JobID == "" {
			// Point records whose jobStart was lost to the crash (it syncs
			// before the 202, so this means a torn tail ate it): nothing to
			// rebuild a job from.
			continue
		}
		rs.Jobs++
		s.recoverJob(st, &rs)
	}
	s.obs.Histogram(obs.StageMetricName(obs.StageJournalReplay)).Observe(time.Since(start).Seconds())
	s.obs.Log(context.Background(), slog.LevelInfo, "journal: recovery complete",
		"dir", s.cfg.JournalDir, "records", rs.Records, "torn", rs.Torn,
		"jobs", rs.Jobs, "terminal", rs.Terminal, "resumed", rs.Resumed,
		"resumedPoints", rs.ResumedPoints)
	return rs, nil
}

// recoverJob rebuilds one journaled job: re-registered as-is when terminal,
// resumed through the worker pool otherwise.
func (s *Server) recoverJob(st *journal.JobState, rs *RecoveryStats) {
	j := &job{
		id:      st.JobID,
		reqID:   st.Start.RequestID,
		idemKey: st.Start.IdempotencyKey,
		total:   st.Start.Total,
		status:  "running",
		created: time.Now(),
	}
	fail := func(err error) {
		j.status = "failed"
		j.errMsg = err.Error()
		s.registerRecovered(j)
		s.obs.Log(context.Background(), slog.LevelWarn, "journal: job not recoverable",
			"job", j.id, "error", err.Error())
	}
	if st.Start.Request == nil {
		fail(errors.New("journal: jobStart record carries no request"))
		return
	}
	plan, apiErr := s.planSweep(st.Start.Request)
	if apiErr != nil {
		fail(apiErr.err)
		return
	}
	if len(plan.specs) != j.total {
		fail(fmt.Errorf("journal: jobStart total %d but request resolves to %d specs", j.total, len(plan.specs)))
		return
	}

	if st.Terminal() {
		rs.Terminal++
		j.status = st.End.Status
		j.errMsg = st.End.Error
		if j.status == "done" || j.status == "cancelled" {
			points := make([]hilp.Point, len(plan.specs))
			for i := range plan.specs {
				if wp, ok := st.Points[i]; ok {
					points[i] = dse.FromWirePoint(wp, plan.specs[i])
				} else {
					// A cancelled job's never-dispatched points were
					// journaled as nothing; mirror the original sweep's
					// context-error placeholders.
					points[i] = dse.FromWirePoint(wire.Point{Error: context.Canceled.Error()}, plan.specs[i])
				}
			}
			resp := &wire.SweepResponse{SchemaVersion: wire.SchemaVersion}
			resp.Points, resp.Pareto = wirePoints(points)
			j.result = resp
			j.done.Store(int64(len(points)))
		}
		s.registerRecovered(j)
		return
	}

	// Interrupted job: resume it. Refuse when the journal was recorded
	// against a different model — replaying one model's metrics into
	// another's result set would be silent corruption.
	if err := dse.CheckResumeKey(st.Start.ModelKey, plan.modelKey); err != nil {
		fail(err)
		return
	}
	resume := map[int]hilp.Point{}
	for idx, wp := range st.Points {
		if idx < 0 || idx >= len(plan.specs) || !dse.Resumable(wp) {
			continue
		}
		resume[idx] = dse.FromWirePoint(wp, plan.specs[idx])
	}
	j.resumed = true
	j.resumedPoints = len(resume)
	j.done.Store(int64(len(resume)))
	rs.Resumed++
	rs.ResumedPoints += len(resume)
	s.obs.Counter(obs.MJournalResumedJobs).Inc()
	s.obs.Counter(obs.MSweepPointsResumed) // pre-register; the engine increments per point
	s.registerRecovered(j)

	opts := append(plan.opts,
		hilp.WithProgress(func(p hilp.SweepProgress) { j.done.Store(int64(p.Done)) }),
		hilp.WithResume(resume))
	opts = s.withJournalCheckpoint(opts, j)
	s.jobWG.Add(1)
	s.obs.Gauge(obs.MServeJobsActive).Add(1)
	go s.runJob(j, plan.workload, plan.specs, opts, plan.timeout)
}

// registerRecovered inserts a rebuilt job (and its idempotency mapping) into
// the registry. Recovery may transiently exceed MaxJobs; normal eviction
// trims the excess as new jobs arrive.
func (s *Server) registerRecovered(j *job) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	if _, dup := s.jobs[j.id]; dup {
		return
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	if j.idemKey != "" {
		s.idem[j.idemKey] = j
	}
}

// sweepModelKey is the canonical identity of what a sweep computes: the
// workload, the resolved specs, and the evaluation configuration. Journaled
// with jobStart and compared on resume (see dse.CheckResumeKey).
func sweepModelKey(req *wire.SweepRequest) string {
	type canonical struct {
		Workload *wire.Workload     `json:"workload,omitempty"`
		Specs    []wire.SoC         `json:"specs"`
		Baseline string             `json:"baseline,omitempty"`
		Profile  *wire.Profile      `json:"profile,omitempty"`
		Solver   *wire.SolverConfig `json:"solver,omitempty"`
	}
	key, err := wire.CanonicalKey(canonical{
		Workload: req.Workload,
		Specs:    req.Specs,
		Baseline: req.Baseline,
		Profile:  req.Profile,
		Solver:   req.Solver,
	})
	if err != nil {
		return ""
	}
	return key
}

// journalJobStart makes the job's existence durable before its 202 leaves the
// server: record plus immediate sync, so a crash cannot forget a job the
// client holds a handle to. Append failures are logged, not fatal — a broken
// journal must not take down serving.
func (s *Server) journalJobStart(j *job, plan *sweepPlan) {
	if s.journal == nil {
		return
	}
	err := s.journal.Append(wire.JournalRecord{
		Kind:  wire.JournalKindJobStart,
		JobID: j.id,
		Start: &wire.JournalJobStart{
			RequestID:      j.reqID,
			IdempotencyKey: j.idemKey,
			Total:          j.total,
			Request:        plan.req,
			ModelKey:       plan.modelKey,
		},
	})
	if err == nil {
		err = s.journal.Sync()
	}
	if err != nil {
		s.obs.Log(context.Background(), slog.LevelError, "journal: jobStart append failed",
			"job", j.id, "error", err.Error())
	}
}

// withJournalCheckpoint appends the per-point checkpoint hook: every
// completed point becomes a journal record (batched fsync per the journal's
// policy — a crash loses at most the last unsynced batch, and those points
// simply re-solve on resume).
func (s *Server) withJournalCheckpoint(opts []hilp.Option, j *job) []hilp.Option {
	if s.journal == nil {
		return opts
	}
	return append(opts, hilp.WithCheckpoint(func(i int, p hilp.Point) {
		err := s.journal.Append(wire.JournalRecord{
			Kind:  wire.JournalKindPoint,
			JobID: j.id,
			Point: &wire.JournalPoint{Index: i, Point: dse.ToWirePoint(p)},
		})
		if err != nil {
			s.obs.Log(context.Background(), slog.LevelError, "journal: point append failed",
				"job", j.id, "point", i, "error", err.Error())
		}
	}))
}

// journalJobEnd makes the job's terminal status durable (record plus
// immediate sync) so recovery never re-runs a finished job.
func (s *Server) journalJobEnd(j *job, status, errMsg string) {
	if s.journal == nil || status == "" || status == "running" {
		return
	}
	err := s.journal.Append(wire.JournalRecord{
		Kind:  wire.JournalKindJobEnd,
		JobID: j.id,
		End:   &wire.JournalJobEnd{Status: status, Error: errMsg},
	})
	if err == nil {
		err = s.journal.Sync()
	}
	if err != nil {
		s.obs.Log(context.Background(), slog.LevelError, "journal: jobEnd append failed",
			"job", j.id, "error", err.Error())
	}
}
