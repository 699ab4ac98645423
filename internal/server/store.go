package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"shapesol/internal/job"
)

// State is the lifecycle phase of a submitted job.
type State string

// The job lifecycle: queued -> running -> done | failed, with canceled
// reachable from queued (DELETE or drain before a worker picks the job
// up) and from running (DELETE or drain mid-run, via the engines'
// context plumbing — the Result then carries Reason == "canceled").
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Status is the wire form of one job's current state: the envelope the
// daemon wraps around the (unchanged, golden-pinned) job.Result. Result
// is set once the job is terminal; Steps tracks live progress before
// that.
type Status struct {
	ID       string     `json:"id"`
	Protocol string     `json:"protocol"`
	Engine   job.Engine `json:"engine"`
	Seed     int64      `json:"seed"`
	State    State      `json:"state"`
	Cached   bool       `json:"cached,omitempty"`
	// Resumed marks a job whose execution continued from a snapshot: a
	// checkpoint recovered at boot, or an explicit POST /v1/jobs/resume.
	Resumed bool        `json:"resumed,omitempty"`
	Steps   int64       `json:"steps,omitempty"`
	Error   string      `json:"error,omitempty"`
	Result  *job.Result `json:"result,omitempty"`
}

// Frame is one line of the NDJSON event stream of GET
// /v1/jobs/{id}/events: progress frames while the job runs (on the
// engines' Progress cadence, throttled by the server's FrameInterval),
// then exactly one result frame carrying the terminal Status fields.
type Frame struct {
	Type   string      `json:"type"` // "progress" or "result"
	ID     string      `json:"id"`
	Steps  int64       `json:"steps"`
	State  State       `json:"state,omitempty"`
	Cached bool        `json:"cached,omitempty"`
	Error  string      `json:"error,omitempty"`
	Result *job.Result `json:"result,omitempty"`
}

// Entry is the job table's record of one submitted job, shared by both
// roles; what only one role needs per job lives in its executor's Ext.
type Entry struct {
	id   string
	job  job.Job   // normalized: engine, budget and param defaults resolved
	spec *job.Spec // resolved at admission, so workers skip re-validation
	key  string    // canonical cache key of the normalized job

	steps atomic.Int64 // latest progress, written on the Progress cadence
	// userCanceled marks a DELETE-initiated cancellation, distinguishing
	// it from a draining shutdown: a user cancel settles the job for good
	// (journaled terminal, never failed over), an interrupt leaves it
	// resumable.
	userCanceled atomic.Bool

	mu     sync.Mutex
	state  State
	cached bool
	// trace is the job's lifecycle span events, in recording order
	// (see trace.go; replayed from the journal on a durable boot).
	trace []TraceEvent
	// resumed marks an execution continued from a snapshot.
	resumed bool
	errMsg  string
	result  *job.Result
	subs    map[chan Frame]struct{}
	ext     any // the executor's per-job state
}

// ID returns the job's id in this process.
func (e *Entry) ID() string { return e.id }

// Job returns the normalized job.
func (e *Entry) Job() job.Job { return e.job }

// Key returns the job's canonical cache key.
func (e *Entry) Key() string { return e.key }

// UserCanceled reports whether a DELETE asked for the job's cancellation.
func (e *Entry) UserCanceled() bool { return e.userCanceled.Load() }

// Ext returns the executor's per-job state.
func (e *Entry) Ext() any {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ext
}

// SetExt attaches the executor's per-job state.
func (e *Entry) SetExt(v any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ext = v
}

// Status snapshots the entry as its wire form.
func (e *Entry) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{
		ID:       e.id,
		Protocol: e.job.Protocol,
		Engine:   e.job.Engine,
		Seed:     e.job.Seed,
		State:    e.state,
		Cached:   e.cached,
		Resumed:  e.resumed,
		Steps:    e.steps.Load(),
		Error:    e.errMsg,
		Result:   e.result,
	}
	if e.result != nil {
		st.Steps = e.result.Steps
	}
	return st
}

// resultFrame renders the terminal Status as the stream's final frame.
// Call only after the entry is terminal.
func (e *Entry) resultFrame() Frame {
	st := e.Status()
	return Frame{
		Type:   "result",
		ID:     st.ID,
		Steps:  st.Steps,
		State:  st.State,
		Cached: st.Cached,
		Error:  st.Error,
		Result: st.Result,
	}
}

// tryStart is the worker's queued -> running transition. It fails when a
// DELETE (or drain) settled the entry while it waited in the queue, in
// which case the worker must not run it.
func (e *Entry) tryStart() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != StateQueued {
		return false
	}
	e.state = StateRunning
	return true
}

// cancelQueued settles a still-queued entry to canceled (no Result: the
// engine never ran) and reports whether it made the transition. The check
// and transition are one critical section, so it cannot race the worker's
// tryStart.
func (e *Entry) cancelQueued(msg string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state == StateQueued && e.finishLocked(StateCanceled, nil, msg)
}

// subscribe registers a progress listener. The returned channel carries
// progress frames and is closed when the job reaches a terminal state
// (subscribing to a finished job returns an already-closed channel); the
// subscriber then reads the final Status itself via resultFrame, so a
// slow consumer can drop progress frames but never the outcome.
func (e *Entry) subscribe() chan Frame {
	ch := make(chan Frame, 16)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state.Terminal() {
		close(ch)
		return ch
	}
	if e.subs == nil {
		e.subs = make(map[chan Frame]struct{})
	}
	e.subs[ch] = struct{}{}
	return ch
}

// unsubscribe removes a listener that is going away before the job
// finished (client disconnect).
func (e *Entry) unsubscribe(ch chan Frame) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.subs[ch]; ok {
		delete(e.subs, ch)
		close(ch)
	}
}

// Publish fans a progress frame out to the live subscribers. Sends are
// non-blocking: a subscriber that is not draining (stalled HTTP write)
// misses frames instead of stalling the engine's progress callback.
func (e *Entry) Publish(f Frame) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for ch := range e.subs {
		select {
		case ch <- f:
		default:
		}
	}
}

// finish moves the entry to a terminal state and closes every
// subscription channel (the subscribers then read the final Status).
// It is a no-op if the entry is already terminal, so a DELETE racing the
// worker's own completion settles on whoever locked first; it reports
// whether this call made the transition.
func (e *Entry) finish(state State, res *job.Result, errMsg string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.finishLocked(state, res, errMsg)
}

func (e *Entry) finishLocked(state State, res *job.Result, errMsg string) bool {
	if e.state.Terminal() {
		return false
	}
	e.state, e.result, e.errMsg = state, res, errMsg
	for ch := range e.subs {
		close(ch)
	}
	e.subs = nil
	return true
}

// store is the in-memory job table. Retention is bounded: once the
// table exceeds maxJobs, the oldest *terminal* entries are evicted as
// new submissions arrive (live jobs are never dropped), so a
// long-running daemon's memory is capped — an evicted id answers 404,
// like an id that never existed.
type store struct {
	mu      sync.Mutex
	prefix  string // id prefix: "j" on a daemon, "c" on a coordinator
	seq     int64
	maxJobs int
	entries map[string]*Entry
	order   []string // insertion order, for listing and eviction
}

func newStore(prefix string, maxJobs int) *store {
	return &store{prefix: prefix, maxJobs: maxJobs, entries: make(map[string]*Entry)}
}

// add registers e — under a fresh id unless it carries one recovered
// from the journal — evicting the oldest settled entries beyond the
// retention bound.
func (st *store) add(e *Entry) *Entry {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e.id == "" {
		st.seq++
		e.id = fmt.Sprintf("%s%d", st.prefix, st.seq)
	}
	st.entries[e.id] = e
	st.order = append(st.order, e.id)
	st.pruneLocked()
	return e
}

// ensureSeq raises the id sequence to at least n, keeping fresh ids
// ahead of recovered ones.
func (st *store) ensureSeq(n int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n > st.seq {
		st.seq = n
	}
}

// pruneLocked evicts oldest-first terminal entries while the table is
// over its bound. An entry's state is read under its own lock; a live
// (queued/running) entry blocks nothing — eviction just skips past it.
func (st *store) pruneLocked() {
	if st.maxJobs < 1 || len(st.entries) <= st.maxJobs {
		return
	}
	kept := st.order[:0]
	for i, id := range st.order {
		e := st.entries[id]
		if len(st.entries) > st.maxJobs && e.Status().State.Terminal() {
			delete(st.entries, id)
			continue
		}
		if len(st.entries) <= st.maxJobs {
			kept = append(kept, st.order[i:]...)
			break
		}
		kept = append(kept, id)
	}
	st.order = kept
}

// remove forgets an entry that was never exposed as accepted (the
// queue-full rejection path), so shed load does not grow the table.
func (st *store) remove(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.entries[id]; !ok {
		return
	}
	delete(st.entries, id)
	for i, have := range st.order {
		if have == id {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
}

// get looks an entry up by id.
func (st *store) get(id string) (*Entry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[id]
	return e, ok
}

// len returns the number of retained entries.
func (st *store) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}

// all snapshots the entries in submission order.
func (st *store) all() []*Entry {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*Entry, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.entries[id])
	}
	return out
}
