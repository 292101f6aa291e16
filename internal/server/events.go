package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"hilp/internal/obs"
)

// heartbeatEvery paces SSE keep-alive comments so intermediaries don't drop
// an idle stream. Variable (not const) so tests can shorten it.
var heartbeatEvery = 10 * time.Second

// terminalJobStatus reports whether a job status string is final.
func terminalJobStatus(status string) bool {
	switch status {
	case "done", "cancelled", "failed":
		return true
	}
	return false
}

// handleJobEvents streams a job's live telemetry as Server-Sent Events:
// per-point completions, incumbent improvements, solver stage transitions,
// and the job's lifecycle, each one BusEvent rendered as an SSE frame
// (id: sequence, event: kind, data: JSON). The stream begins with a
// synthesized "job" snapshot so late subscribers see current progress
// immediately, and ends when the job reaches a terminal state, the client
// disconnects, or the server drains. Events published before the
// subscription simply aren't replayed — the bus is a live feed, not a log.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.jobMu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.jobMu.Unlock()
	if !ok {
		s.writeError(r.Context(), w, http.StatusNotFound, "not_found", fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(r.Context(), w, http.StatusInternalServerError, "no_stream",
			fmt.Errorf("response writer cannot stream"))
		return
	}

	// Subscribe before reading the snapshot: events published in between are
	// then either in the snapshot or in the subscription, never lost.
	sub := s.obs.Bus.Subscribe()
	defer sub.Unsubscribe()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	snap := j.snapshot()
	writeSSE(w, 0, obs.BusEvent{
		Kind: "job", Name: snap.Status, Job: snap.ID, Req: snap.RequestID,
		Done: snap.Done, Total: snap.Total, Status: snap.Status,
	})
	flusher.Flush()
	if terminalJobStatus(snap.Status) {
		return
	}

	// Sweep-point events carry the starting request's correlation ID (the
	// parent "<req>" or a derived "<req>/pN"), job lifecycle events carry the
	// job ID; match either so the stream is exactly this job's telemetry.
	match := func(ev obs.BusEvent) bool {
		if ev.Job != "" {
			return ev.Job == snap.ID
		}
		if snap.RequestID == "" || ev.Req == "" {
			return false
		}
		return ev.Req == snap.RequestID || strings.HasPrefix(ev.Req, snap.RequestID+"/")
	}

	heartbeat := time.NewTicker(heartbeatEvery)
	defer heartbeat.Stop()
	for {
		select {
		case ev, open := <-sub.C:
			if !open {
				return // bus closed: server shutting down
			}
			if !match(ev) {
				continue
			}
			writeSSE(w, ev.Seq, ev)
			flusher.Flush()
			if ev.Kind == "job" && ev.Job == snap.ID && terminalJobStatus(ev.Status) {
				return
			}
		case <-heartbeat.C:
			// Comment frame: keeps the connection alive, invisible to
			// EventSource clients.
			fmt.Fprint(w, ": heartbeat\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		}
	}
}

// writeSSE renders one bus event as an SSE frame. The data line must be a
// single line, so the event is marshaled compactly (not with wire.Marshal's
// indentation).
func writeSSE(w http.ResponseWriter, seq uint64, ev obs.BusEvent) {
	body, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", seq, ev.Kind, body)
}
