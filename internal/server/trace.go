package server

import (
	"net/http"
	"time"
)

// TraceEvent is one span event in a job's lifecycle trace: the
// submitted → queued → running → checkpointed* → settled sequence (plus
// resumed/recovered markers), replayable after a crash because durable
// daemons journal each event. Traces answer the question metrics can't:
// what happened to *this* job, and when.
type TraceEvent struct {
	TS     time.Time `json:"ts"`
	Event  string    `json:"event"`
	Detail string    `json:"detail,omitempty"`
	Steps  int64     `json:"steps,omitempty"`
}

// Trace event names. Traces are append-only observations, not a state
// machine: a consumer must tolerate unknown events (the cluster
// coordinator adds its own routing/failover vocabulary).
const (
	TraceSubmitted    = "submitted"
	TraceQueued       = "queued"
	TraceCacheHit     = "cache-hit"
	TraceRunning      = "running"
	TraceCheckpointed = "checkpointed"
	TraceResumed      = "resumed"
	TraceRecovered    = "recovered"
	TraceSettled      = "settled"
)

// traceBody is the GET /v1/jobs/{id}/trace response.
type traceBody struct {
	ID     string       `json:"id"`
	Events []TraceEvent `json:"events"`
}

// handleTrace serves a job's lifecycle trace in recording order.
func (f *Front) handleTrace(w http.ResponseWriter, r *http.Request) {
	e, ok := f.entryFor(w, r)
	if !ok {
		return
	}
	e.mu.Lock()
	events := append([]TraceEvent(nil), e.trace...)
	e.mu.Unlock()
	WriteJSON(w, http.StatusOK, traceBody{ID: e.id, Events: events})
}
