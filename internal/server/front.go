package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"shapesol/internal/job"
	"shapesol/internal/obs"
	"shapesol/internal/sched"
	"shapesol/internal/snap"
)

// Executor is the role-specific half of the job service: what runs an
// admitted job, how a running job is canceled and where its checkpoints
// live. Server executes jobs on a local pool; the cluster coordinator
// places them on workers. Everything else — the job table, the result
// cache, traces, metrics and the /v1 handlers — is the Front both share.
type Executor interface {
	// Start hands a just-admitted, queued entry to execution and traces
	// its submission. snapshot holds the uploaded bytes of a resume
	// admission, nil otherwise. An error refuses the admission: the entry
	// is dropped and the client answered 503 with the error's text, or
	// with a Refusal's own code and body.
	Start(e *Entry, snapshot []byte) error
	// Cancel stops a live entry after a user DELETE.
	Cancel(e *Entry)
	// Snapshot returns the entry's latest checkpoint bytes: nil when it
	// has none, an error (whose text becomes the 404 body) when the role
	// cannot have one.
	Snapshot(e *Entry) ([]byte, error)
	// Record is told of every lifecycle trace event as it is recorded.
	Record(e *Entry, ev TraceEvent)
	// Health adds the role's fields to the /healthz body.
	Health(h *Health)
}

// Refusal is an admission an executor turned down with a specific answer
// (a worker's own 503 or 400, relayed by the coordinator).
type Refusal struct {
	Code int
	Body ErrorBody
}

func (r *Refusal) Error() string { return r.Body.Error }

// Front is the /v1 job front end of both shapesold roles: one job table
// with its retention bound, one LRU result cache, the lifecycle traces,
// the metrics core and one handler per route. The role difference sits
// behind its Executor.
type Front struct {
	reg      *job.Registry
	name     string // "server" or "coordinator", as named in the draining error
	exec     Executor
	store    *store
	cache    *Cache
	mux      *http.ServeMux
	metrics  *frontMetrics
	draining atomic.Bool
}

// NewFront builds the front end of one role and registers its routes.
// A nil registry means job.Default; cacheSize 0 means 256 and negative
// disables the cache; maxJobs < 1 means 4096. Job ids are idPrefix
// followed by a sequence number.
func NewFront(reg *job.Registry, cacheSize, maxJobs int, idPrefix, name string, exec Executor) *Front {
	if reg == nil {
		reg = job.Default
	}
	if cacheSize == 0 {
		cacheSize = 256
	}
	if maxJobs < 1 {
		maxJobs = 4096
	}
	f := &Front{
		reg:   reg,
		name:  name,
		exec:  exec,
		store: newStore(idPrefix, maxJobs),
		cache: NewCache(cacheSize),
		mux:   http.NewServeMux(),
	}
	f.metrics = newFrontMetrics(f)
	for _, rt := range f.routes() {
		f.Handle(rt.pattern, rt.handler)
	}
	return f
}

// route pairs one mux pattern with its handler. routes below is the
// single source of the job API: NewFront registers from it, and Routes
// exposes the patterns so the API reference (API.md) can be pinned
// against the mux by test.
type route struct {
	pattern string
	handler http.HandlerFunc
}

func (f *Front) routes() []route {
	return []route{
		{"POST /v1/jobs", f.handleSubmit},
		{"POST /v1/jobs/resume", f.handleResume},
		{"GET /v1/jobs", f.handleList},
		{"GET /v1/jobs/{id}", f.handleStatus},
		{"GET /v1/jobs/{id}/result", f.handleResult},
		{"GET /v1/jobs/{id}/snapshot", f.handleSnapshot},
		{"DELETE /v1/jobs/{id}", f.handleCancel},
		{"GET /v1/jobs/{id}/events", f.handleEvents},
		{"GET /v1/jobs/{id}/trace", f.handleTrace},
		{"GET /v1/protocols", f.handleProtocols},
		{"GET /healthz", f.handleHealth},
		{"GET /metrics", f.handleMetrics},
	}
}

// Routes returns the mux patterns of every endpoint a Front registers,
// in registration order.
func Routes() []string {
	var f *Front // handlers are method values, never invoked here
	rts := f.routes()
	out := make([]string, len(rts))
	for i, rt := range rts {
		out[i] = rt.pattern
	}
	return out
}

// Handle registers one more route, timed like the job API's own.
func (f *Front) Handle(pattern string, h http.HandlerFunc) {
	f.mux.HandleFunc(pattern, f.metrics.instrument(pattern, h))
}

// ServeHTTP dispatches to the registered routes.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mux.ServeHTTP(w, r)
}

// Registry returns the metrics registry GET /metrics serves, for the
// executor's own series.
func (f *Front) Registry() *obs.Registry { return f.metrics.reg }

// Entries returns the retained job records in submission order.
func (f *Front) Entries() []*Entry { return f.store.all() }

// Drain marks the front as draining: submissions are answered 503 from
// now on.
func (f *Front) Drain() { f.draining.Store(true) }

// Trace records one lifecycle event on e and tells the executor.
func (f *Front) Trace(e *Entry, event, detail string, steps int64) {
	ev := TraceEvent{TS: time.Now().UTC(), Event: event, Detail: detail, Steps: steps}
	e.mu.Lock()
	e.trace = append(e.trace, ev)
	e.mu.Unlock()
	f.metrics.traces.Inc()
	f.exec.Record(e, ev)
}

// TraceSubmitted records e's submitted event.
func (f *Front) TraceSubmitted(e *Entry) {
	f.Trace(e, TraceSubmitted, e.job.Protocol+"/"+string(e.job.Engine), 0)
}

// Settle moves e to a terminal state and traces the settlement, feeding
// the cache first on success so a watcher that resubmits the instant it
// sees the result frame cannot race past the cache into a re-simulation.
// It reports whether this call settled e (false when it already was).
func (f *Front) Settle(e *Entry, state State, res *job.Result, errMsg string) bool {
	if state == StateDone && res != nil {
		f.cache.Put(e.key, *res)
	}
	if !e.finish(state, res, errMsg) {
		return false
	}
	detail, steps := string(state), int64(0)
	if state == StateFailed {
		detail += ": " + errMsg
	}
	if res != nil {
		steps = res.Steps
	}
	f.Trace(e, TraceSettled, detail, steps)
	return true
}

// Apply folds a Status the executor learned from elsewhere (a worker's
// answer or event frame) into e: the live state and progress, or the
// settlement. It reports whether this call settled e.
func (f *Front) Apply(e *Entry, st Status) bool {
	e.mu.Lock()
	if e.state.Terminal() {
		e.mu.Unlock()
		return false
	}
	e.resumed = e.resumed || st.Resumed
	e.cached = e.cached || st.Cached
	if st.State == StateQueued || st.State == StateRunning {
		e.state = st.State
		e.steps.Store(st.Steps)
	}
	e.mu.Unlock()
	return st.State.Terminal() && f.Settle(e, st.State, st.Result, st.Error)
}

// ErrorBody is the JSON shape of every non-2xx response. Fields carries
// the per-field breakdown when the failure is a fault-profile validation
// error, so clients can pinpoint every offending profile field at once.
type ErrorBody struct {
	Error  string             `json:"error"`
	Fields []sched.FieldError `json:"fields,omitempty"`
}

// WriteJSON writes v as the service's canonical JSON response form:
// two-space indented, Content-Type application/json.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about a failed response write
}

// WriteError writes an ErrorBody with the given message.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, ErrorBody{Error: msg})
}

// WriteValidationError is WriteError for admission failures: when the
// cause is a *sched.ValidationError (an invalid fault profile), the 400
// body carries its field-level entries alongside the message.
func WriteValidationError(w http.ResponseWriter, err error) {
	var ve *sched.ValidationError
	if errors.As(err, &ve) {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Fields: ve.Fields})
		return
	}
	WriteError(w, http.StatusBadRequest, err.Error())
}

// handleSubmit validates and admits one Job. Validation failures
// (unknown protocol or engine, parameters outside the Spec's schema,
// unknown JSON fields) are 400s; a full queue or a draining service is a
// 503; a deterministic repeat of a cached run is answered 200 complete,
// without execution.
func (f *Front) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if f.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, f.name+" draining")
		return
	}
	var j job.Job
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		WriteError(w, http.StatusBadRequest, "bad job JSON: "+err.Error())
		return
	}
	nj, spec, err := f.reg.Normalize(j)
	if err != nil {
		WriteValidationError(w, err)
		return
	}
	f.admit(w, nj, spec, nil)
}

// handleResume admits a snapshot (the raw bytes of a snapshot file) as a
// new job that continues the frozen run. The snapshot is self-contained —
// its embedded normalized job is validated like any submission — and the
// admission goes through the same cache and backpressure path, so a
// snapshot of an already-cached deterministic run is answered without
// re-simulation.
func (f *Front) handleResume(w http.ResponseWriter, r *http.Request) {
	if f.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, f.name+" draining")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "read snapshot: "+err.Error())
		return
	}
	snapshot, err := snap.Decode(data)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	nj, spec, err := f.reg.ResumeJob(snapshot)
	if err != nil {
		WriteValidationError(w, err)
		return
	}
	f.admit(w, nj, spec, data)
}

// admit runs the shared tail of submission and resume: a cache hit is
// recorded settled and answered 200; anything else becomes a queued entry
// the executor starts, answered 202 (200 when the executor found it
// cached further down).
func (f *Front) admit(w http.ResponseWriter, nj job.Job, spec *job.Spec, snapshot []byte) {
	e := &Entry{job: nj, spec: spec, key: nj.CacheKey(), state: StateQueued, resumed: nj.Restore != nil}
	if res, ok := f.cache.Get(e.key); ok {
		e.state, e.cached, e.result = StateDone, true, &res
		f.store.add(e)
		f.TraceSubmitted(e)
		f.Trace(e, TraceCacheHit, "", res.Steps)
		f.Trace(e, TraceSettled, string(StateDone), res.Steps)
		WriteJSON(w, http.StatusOK, e.Status())
		return
	}
	if nj.Restore != nil {
		e.steps.Store(nj.Restore.Steps)
	}
	f.store.add(e)
	if err := f.exec.Start(e, snapshot); err != nil {
		// Shed load without retaining state: the id was never exposed.
		f.store.remove(e.id)
		var rf *Refusal
		if errors.As(err, &rf) {
			WriteJSON(w, rf.Code, rf.Body)
			return
		}
		WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	st := e.Status()
	code := http.StatusAccepted
	if st.Cached {
		code = http.StatusOK
	}
	WriteJSON(w, code, st)
}

func (f *Front) entryFor(w http.ResponseWriter, r *http.Request) (*Entry, bool) {
	e, ok := f.store.get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job "+r.PathValue("id"))
		return nil, false
	}
	return e, true
}

func (f *Front) handleList(w http.ResponseWriter, r *http.Request) {
	entries := f.store.all()
	out := make([]Status, len(entries))
	for i, e := range entries {
		out[i] = e.Status()
	}
	WriteJSON(w, http.StatusOK, out)
}

func (f *Front) handleStatus(w http.ResponseWriter, r *http.Request) {
	if e, ok := f.entryFor(w, r); ok {
		WriteJSON(w, http.StatusOK, e.Status())
	}
}

// handleResult serves the bare Result envelope of a finished job,
// byte-identical (MarshalIndent, two-space, trailing newline) to the
// golden-pinned form internal/job's tests check; a Result decoded from a
// worker or the journal keeps its payload bytes, so it re-encodes the
// same. 409 until the job is terminal; 404 when it settled without ever
// running (canceled while queued, failed).
func (f *Front) handleResult(w http.ResponseWriter, r *http.Request) {
	e, ok := f.entryFor(w, r)
	if !ok {
		return
	}
	st := e.Status()
	if !st.State.Terminal() {
		WriteError(w, http.StatusConflict, "job "+st.ID+" not finished (state "+string(st.State)+")")
		return
	}
	if st.Result == nil {
		WriteError(w, http.StatusNotFound, "job "+st.ID+" has no result: "+st.Error)
		return
	}
	body, err := json.MarshalIndent(st.Result, "", "  ")
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(body, '\n')) //nolint:errcheck // nothing to do about a failed response write
}

// handleCancel cancels a job. A queued job is settled to canceled
// immediately; a running one is stopped by the executor and settles when
// the engine observes it (poll or stream to see the final Status, whose
// Result carries Reason == "canceled"). Canceling a terminal job is an
// idempotent no-op.
func (f *Front) handleCancel(w http.ResponseWriter, r *http.Request) {
	e, ok := f.entryFor(w, r)
	if !ok {
		return
	}
	e.userCanceled.Store(true)
	if !e.Status().State.Terminal() {
		f.exec.Cancel(e)
	}
	st := e.Status()
	code := http.StatusOK
	if !st.State.Terminal() {
		code = http.StatusAccepted // mid-run: the engine will settle it shortly
	}
	WriteJSON(w, code, st)
}

// handleSnapshot serves the job's latest checkpoint — the durable
// snapshot a client can download, ship elsewhere, and feed back through
// POST /v1/jobs/resume (or shapesolctl resume / job.Resume).
func (f *Front) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	e, ok := f.entryFor(w, r)
	if !ok {
		return
	}
	data, err := f.exec.Snapshot(e)
	switch {
	case err != nil:
		WriteError(w, http.StatusNotFound, err.Error())
	case data == nil:
		WriteError(w, http.StatusNotFound, "job "+e.id+" has no checkpoint (none captured yet, or it already settled)")
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(data) //nolint:errcheck // nothing to do about a failed response write
	}
}

// handleEvents streams a job's progress as NDJSON: one frame per
// published tick, then exactly one "result" frame with the terminal
// Status, then EOF. Subscribing to a finished job yields the result frame
// immediately.
func (f *Front) handleEvents(w http.ResponseWriter, r *http.Request) {
	e, ok := f.entryFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(fr Frame) bool {
		if err := enc.Encode(fr); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	ch := e.subscribe()
	// An initial snapshot frame, so a watcher sees the job's state
	// without waiting out a long quiet stretch of the engine.
	if st := e.Status(); !st.State.Terminal() {
		if !emit(Frame{Type: "progress", ID: e.id, Steps: st.Steps, State: st.State}) {
			e.unsubscribe(ch)
			return
		}
	}
	for {
		select {
		case fr, open := <-ch:
			if !open {
				emit(e.resultFrame())
				return
			}
			if !emit(fr) {
				e.unsubscribe(ch)
				return
			}
		case <-r.Context().Done():
			e.unsubscribe(ch)
			return
		}
	}
}

// ProtocolInfo is the wire projection of a registered Spec. Fault is the
// full schema of the "fault" parameter's profile object (scheduler kinds,
// rates, fault clocks, with per-field engine support), present on every
// spec that takes one, so clients can construct valid profiles from the
// listing alone.
type ProtocolInfo struct {
	Name    string            `json:"name"`
	Title   string            `json:"title"`
	Paper   string            `json:"paper"`
	Engines []job.Engine      `json:"engines"`
	Budget  int64             `json:"budget"`
	Params  []ParamInfo       `json:"params,omitempty"`
	Fault   []sched.FieldSpec `json:"fault,omitempty"`
}

// ParamInfo is one parameter row of a ProtocolInfo.
type ParamInfo struct {
	Name     string `json:"name"`
	Usage    string `json:"usage"`
	Required bool   `json:"required,omitempty"`
	Default  any    `json:"default,omitempty"`
	Min      int    `json:"min,omitempty"`
}

// ProtocolsPayload renders the registry as the GET /v1/protocols body.
func ProtocolsPayload(reg *job.Registry) []ProtocolInfo {
	names := reg.Names()
	out := make([]ProtocolInfo, 0, len(names))
	for _, name := range names {
		spec, _ := reg.Get(name)
		info := ProtocolInfo{
			Name:    spec.Name,
			Title:   spec.Title,
			Paper:   spec.Paper,
			Engines: spec.Engines,
			Budget:  spec.Budget,
		}
		for _, f := range spec.Params {
			p := ParamInfo{Name: f.Name, Usage: f.Usage, Required: f.Required, Min: f.Min}
			if f.DefaultStr != "" {
				p.Default = f.DefaultStr
			} else if f.Default != 0 {
				p.Default = f.Default
			}
			info.Params = append(info.Params, p)
			if f.Name == "fault" {
				info.Fault = sched.Schema()
			}
		}
		out = append(out, info)
	}
	return out
}

func (f *Front) handleProtocols(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, ProtocolsPayload(f.reg))
}

// Health is the /healthz body. Role and Fleet are the coordinator's
// additions; a daemon leaves them out.
type Health struct {
	Status   string `json:"status"`
	Role     string `json:"role,omitempty"`
	Draining bool   `json:"draining,omitempty"`
	*Fleet
	Jobs        int    `json:"jobs"`
	CacheLen    int    `json:"cache_len"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Protocols   string `json:"protocols"`
}

// Fleet is the coordinator's membership count in Health.
type Fleet struct {
	Nodes int `json:"nodes"`
	Alive int `json:"alive"`
}

func (f *Front) handleHealth(w http.ResponseWriter, r *http.Request) {
	hits, misses := f.cache.Stats()
	h := Health{
		Status:      "ok",
		Draining:    f.draining.Load(),
		Jobs:        f.store.len(),
		CacheLen:    f.cache.Len(),
		CacheHits:   hits,
		CacheMisses: misses,
		Protocols:   strings.Join(f.reg.Names(), ","),
	}
	f.exec.Health(&h)
	WriteJSON(w, http.StatusOK, h)
}
