package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shapesol/internal/job"
	"shapesol/internal/server"
)

// Config parameterizes a Coordinator. The zero value is usable: Default
// registry, 2s heartbeats with a miss budget of 3, 1s mirror cadence,
// a 256-entry result cache and 64 virtual nodes per worker.
type Config struct {
	// Registry resolves protocol names for validation and the local
	// /v1/protocols listing; nil means job.Default.
	Registry *job.Registry
	// HeartbeatEvery is the heartbeat cadence the coordinator dictates to
	// workers at registration. 0 means 2s.
	HeartbeatEvery time.Duration
	// MissBudget is how many consecutive heartbeat intervals a worker may
	// stay silent before it is marked dead and its in-flight jobs fail
	// over to survivors. Values < 1 mean 3.
	MissBudget int
	// PullEvery is the maintenance cadence: death sweep, pending-job
	// reassignment, and the checkpoint mirror of running jobs. 0 means 1s.
	PullEvery time.Duration
	// CacheSize bounds the coordinator's LRU result cache fronting the
	// workers' own caches; 0 means 256, negative disables.
	CacheSize int
	// MaxJobs bounds retained job records, like server.Config.MaxJobs.
	// Values < 1 mean 4096.
	MaxJobs int
	// VNodes is the virtual-node count per worker on the hash ring;
	// values < 1 mean 64.
	VNodes int
	// Client makes the unary proxy calls; nil means a 30s-timeout client.
	// Event streams use a dedicated timeout-free client regardless.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 2 * time.Second
	}
	if c.MissBudget < 1 {
		c.MissBudget = 3
	}
	if c.PullEvery == 0 {
		c.PullEvery = time.Second
	}
	if c.VNodes < 1 {
		c.VNodes = 64
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// node is the coordinator's view of one registered worker.
type node struct {
	name     string
	url      string
	alive    bool
	lastBeat time.Time
}

// placement is the coordinator's per-job state, kept as the job's
// server.Entry Ext: where the job lives and the latest checkpoint needed
// to move it on a failover.
type placement struct {
	mu       sync.Mutex
	node     string // owning node name; "" while unassigned
	remoteID string // the job's id on the owning worker
	// pending marks an orphan waiting for reassignment. A job mid-admission
	// or mid-reassignment also has node == "" but pending false, so the
	// maintenance loop does not place it twice.
	pending  bool
	snapshot []byte // latest mirrored checkpoint, or the uploaded resume snapshot
}

func placementOf(e *server.Entry) *placement {
	p, _ := e.Ext().(*placement)
	return p
}

// Coordinator fronts a fleet of shapesold workers with the standalone
// daemon's /v1 front end and a remote executor: it routes submissions by
// cache key over a consistent-hash ring, relays each job's event stream
// from its owner, mirrors running jobs' checkpoints, and on worker death
// re-enqueues the lost jobs on survivors from their latest checkpoint.
// Create with New, serve via ServeHTTP, stop with Shutdown.
type Coordinator struct {
	cfg     Config
	front   *server.Front
	client  *http.Client
	stream  *http.Client
	metrics *clusterMetrics

	// lastMirror is the UnixNano stamp of the last completed mirror
	// pass, read by the shapesol_cluster_mirror_lag_seconds gauge.
	lastMirror atomic.Int64

	mu    sync.Mutex // guards nodes, ring, and goroutine starts against ctx
	nodes map[string]*node
	ring  *Ring

	// ctx ends the maintenance loop and every event relay at Shutdown.
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
}

// New builds a Coordinator and starts its maintenance loop (death sweep,
// pending reassignment, checkpoint mirror) on the PullEvery cadence.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		client: cfg.Client,
		stream: &http.Client{},
		nodes:  make(map[string]*node),
		ring:   NewRing(cfg.VNodes),
	}
	c.ctx, c.stop = context.WithCancel(context.Background())
	c.front = server.NewFront(cfg.Registry, cfg.CacheSize, cfg.MaxJobs, "c", "coordinator", c)
	c.metrics = newClusterMetrics(c)
	for _, rt := range c.routes() {
		c.front.Handle(rt.pattern, rt.handler)
	}
	c.spawn(c.maintain)
	return c
}

// route is one membership route; Routes exposes the patterns for the
// API.md coverage test.
type route struct {
	pattern string
	handler http.HandlerFunc
}

func (c *Coordinator) routes() []route {
	return []route{
		{"POST /v1/cluster/register", c.handleRegister},
		{"POST /v1/cluster/heartbeat", c.handleHeartbeat},
		{"GET /v1/cluster/nodes", c.handleNodes},
	}
}

// Routes returns the mux patterns of every endpoint a Coordinator
// registers: its membership routes, then the shared job API.
func Routes() []string {
	var c *Coordinator // handlers are method values, never invoked here
	var out []string
	for _, rt := range c.routes() {
		out = append(out, rt.pattern)
	}
	return append(out, server.Routes()...)
}

// ServeHTTP dispatches to the coordinator's routes.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.front.ServeHTTP(w, r)
}

// Shutdown rejects new submissions and stops the maintenance loop and
// the event relays. Workers drain themselves; their jobs keep running.
func (c *Coordinator) Shutdown() {
	c.front.Drain()
	c.mu.Lock()
	c.stop()
	c.mu.Unlock()
	c.wg.Wait()
}

// spawn runs fn on a goroutine Shutdown waits for, unless Shutdown
// already began.
func (c *Coordinator) spawn(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctx.Err() != nil {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		fn()
	}()
}

// ---------------------------------------------------------------------
// Membership: register / heartbeat / nodes.

// registerRequest is the body of POST /v1/cluster/register.
type registerRequest struct {
	// Name identifies the worker across re-registrations; URL is the base
	// URL the coordinator reaches it at (its advertise address).
	Name string `json:"name"`
	URL  string `json:"url"`
}

// registerResponse dictates the heartbeat contract to the worker.
type registerResponse struct {
	Name        string `json:"name"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
	MissBudget  int    `json:"miss_budget"`
}

// heartbeatRequest is the body of POST /v1/cluster/heartbeat.
type heartbeatRequest struct {
	Name string `json:"name"`
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad register JSON: "+err.Error())
		return
	}
	if req.Name == "" || req.URL == "" {
		server.WriteError(w, http.StatusBadRequest, "register needs name and url")
		return
	}
	now := time.Now()
	c.mu.Lock()
	n, known := c.nodes[req.Name]
	if !known {
		n = &node{name: req.Name}
		c.nodes[req.Name] = n
	}
	n.url = strings.TrimRight(req.URL, "/")
	n.alive = true
	n.lastBeat = now
	c.ring.Add(req.Name)
	members := c.ring.Len()
	c.mu.Unlock()
	slog.Info("cluster: worker registered", "node", req.Name, "url", req.URL, "rejoined", known, "ring", members)
	server.WriteJSON(w, http.StatusOK, registerResponse{
		Name:        req.Name,
		HeartbeatMS: c.cfg.HeartbeatEvery.Milliseconds(),
		MissBudget:  c.cfg.MissBudget,
	})
}

// handleHeartbeat refreshes a worker's liveness. An unknown or
// already-dead worker gets 404: the agent reacts by re-registering,
// which is both the recovery path after a coordinator restart (the new
// incarnation starts with an empty ring and rebuilds it from the
// re-registrations) and the rejoin path for a worker that was declared
// dead while merely slow — its jobs have already failed over, so it
// must come back through register, as an empty node.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad heartbeat JSON: "+err.Error())
		return
	}
	c.mu.Lock()
	n, ok := c.nodes[req.Name]
	if ok && n.alive {
		n.lastBeat = time.Now()
	}
	alive := ok && n.alive
	c.mu.Unlock()
	if !alive {
		server.WriteError(w, http.StatusNotFound, "unknown worker "+req.Name+"; re-register")
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// NodeStatus is one row of GET /v1/cluster/nodes.
type NodeStatus struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	// LastHeartbeatAgoMS is the silence length; the worker is declared
	// dead once it exceeds MissBudget heartbeat intervals.
	LastHeartbeatAgoMS int64 `json:"last_heartbeat_ago_ms"`
	// Jobs lists the jobs currently assigned to this node.
	Jobs []NodeJob `json:"jobs,omitempty"`
}

// NodeJob is one assigned job in a NodeStatus.
type NodeJob struct {
	ID    string       `json:"id"`
	State server.State `json:"state"`
	// Snapshot reports whether the coordinator holds a mirrored
	// checkpoint of the job — i.e. whether a failover right now would
	// resume mid-run rather than restart from scratch.
	Snapshot bool `json:"snapshot,omitempty"`
}

func (c *Coordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	byNode := make(map[string][]NodeJob)
	for _, e := range c.front.Entries() {
		if p := placementOf(e); p != nil {
			p.mu.Lock()
			name, snapshot := p.node, p.snapshot != nil
			p.mu.Unlock()
			if name != "" {
				byNode[name] = append(byNode[name], NodeJob{ID: e.ID(), State: e.Status().State, Snapshot: snapshot})
			}
		}
	}
	now := time.Now()
	c.mu.Lock()
	out := make([]NodeStatus, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, NodeStatus{
			Name:               n.name,
			URL:                n.url,
			Alive:              n.alive,
			LastHeartbeatAgoMS: now.Sub(n.lastBeat).Milliseconds(),
			Jobs:               byNode[n.name],
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	server.WriteJSON(w, http.StatusOK, out)
}

// ---------------------------------------------------------------------
// The remote executor: placement, relay, cancel, snapshot.

// Start places an admitted entry on the ring owner of its cache key and
// starts its event relay. The uploaded snapshot of a resume admission is
// kept as the job's handoff state, so a worker death before the first
// mirrored checkpoint still resumes from it rather than from scratch.
func (c *Coordinator) Start(e *server.Entry, snapshot []byte) error {
	p := &placement{snapshot: snapshot}
	e.SetExt(p)
	c.front.TraceSubmitted(e)
	if err := c.place(e, p, snapshot); err != nil {
		return err
	}
	if !e.Status().State.Terminal() {
		c.spawn(func() { c.relay(e, p) })
	}
	return nil
}

// place forwards the job to the ring owner of its cache key, walking past
// nodes that turn out unreachable (each such discovery marks the node
// dead, which fails its other jobs over too). resumeData non-nil sends
// POST /v1/jobs/resume with the snapshot bytes; nil sends the normalized
// job to POST /v1/jobs. A worker's rejection comes back as a
// *server.Refusal carrying its answer.
func (c *Coordinator) place(e *server.Entry, p *placement, resumeData []byte) error {
	tried := make(map[string]bool)
	for {
		c.mu.Lock()
		owner := c.ring.Owner(e.Key())
		var ownerURL string
		if owner != "" {
			ownerURL = c.nodes[owner].url
		}
		c.mu.Unlock()
		if owner == "" {
			return errors.New("no live workers")
		}
		if tried[owner] {
			return errors.New("no live worker accepted the job")
		}
		tried[owner] = true

		var resp *http.Response
		var err error
		if resumeData != nil {
			resp, err = c.client.Post(ownerURL+"/v1/jobs/resume", "application/octet-stream", bytes.NewReader(resumeData))
		} else {
			body, merr := json.Marshal(e.Job())
			if merr != nil {
				return merr
			}
			resp, err = c.client.Post(ownerURL+"/v1/jobs", "application/json", bytes.NewReader(body))
		}
		if err != nil {
			c.failNode(owner, "unreachable: "+err.Error())
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			c.failNode(owner, "read response: "+err.Error())
			continue
		}
		if resp.StatusCode >= 300 {
			rf := &server.Refusal{Code: resp.StatusCode}
			if json.Unmarshal(body, &rf.Body) != nil || rf.Body.Error == "" {
				rf.Body = server.ErrorBody{Error: strings.TrimSpace(string(body))}
			}
			return rf
		}
		var st server.Status
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("bad status from worker %s: %w", owner, err)
		}
		// Assign under c.mu, which failNode holds while it collects a dead
		// node's orphans: an owner that died during the POST leaves the job
		// pending for the maintenance loop instead of assigned to a corpse.
		c.mu.Lock()
		p.mu.Lock()
		p.node, p.remoteID = owner, st.ID
		if n := c.nodes[owner]; n == nil || !n.alive {
			p.node, p.remoteID, p.pending = "", "", true
		}
		p.mu.Unlock()
		c.mu.Unlock()
		c.front.Trace(e, TraceRouted, owner, 0)
		c.front.Apply(e, st)
		return nil
	}
}

// owner returns the job's current worker URL and id there.
func (c *Coordinator) owner(p *placement) (url, remoteID string, ok bool) {
	if p == nil {
		return "", "", false
	}
	p.mu.Lock()
	name, remoteID := p.node, p.remoteID
	p.mu.Unlock()
	if name == "" {
		return "", "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n, have := c.nodes[name]
	if !have {
		return "", "", false
	}
	return n.url, remoteID, true
}

// get fetches url, failing unless the answer is a 200.
func (c *Coordinator) get(url string) ([]byte, error) {
	resp, err := c.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return body, err
}

// relay follows the job's NDJSON event stream on its owner until the job
// settles, republishing progress under the coordinator id and folding the
// result frame in. It survives failover: when the owner dies mid-stream
// it waits for the reassignment and reattaches to the new owner, so a
// watcher sees one uninterrupted stream ending in exactly one result
// frame.
func (c *Coordinator) relay(e *server.Entry, p *placement) {
	retry := c.cfg.PullEvery
	if retry <= 0 || retry > time.Second {
		retry = time.Second
	}
	for !e.Status().State.Terminal() {
		if url, remoteID, ok := c.owner(p); ok && c.pump(e, p, url, remoteID) {
			return
		}
		select {
		case <-c.ctx.Done():
			return
		case <-time.After(retry):
		}
	}
}

// pump copies one upstream event stream into the entry. It reports
// whether the entry settled; false means the stream ended early (worker
// death) or the job moved to another worker.
func (c *Coordinator) pump(e *server.Entry, p *placement, url, remoteID string) bool {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, url+"/v1/jobs/"+remoteID+"/events", nil)
	if err != nil {
		return false
	}
	resp, err := c.stream.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	// A result frame for a large run exceeds bufio's 64K default line.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var f server.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			continue
		}
		if u, id, _ := c.owner(p); u != url || id != remoteID {
			return false // failed over meanwhile: follow the new owner
		}
		c.front.Apply(e, server.Status{State: f.State, Cached: f.Cached, Steps: f.Steps, Error: f.Error, Result: f.Result})
		if e.Status().State.Terminal() {
			return true
		}
		e.Publish(server.Frame{Type: "progress", ID: e.ID(), Steps: f.Steps, State: f.State})
	}
	return false
}

// Cancel cancels cluster-wide: the DELETE is forwarded to the owning
// worker when one is reachable; otherwise the job settles here, and
// failover never resurrects it (reassign skips user-canceled jobs).
func (c *Coordinator) Cancel(e *server.Entry) {
	if url, remoteID, ok := c.owner(placementOf(e)); ok {
		req, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+remoteID, nil)
		if resp, err := c.client.Do(req); err == nil {
			var st server.Status
			decoded := resp.StatusCode < 300 && json.NewDecoder(resp.Body).Decode(&st) == nil
			resp.Body.Close()
			if decoded {
				c.front.Apply(e, st)
				return
			}
		}
	}
	c.front.Settle(e, server.StateCanceled, nil, "canceled")
}

// Snapshot proxies the owner's latest checkpoint; when the owner is
// unreachable (dead, or the job is mid-failover) it serves the
// coordinator's own mirrored copy, so snapshots stay downloadable
// through a failure window.
func (c *Coordinator) Snapshot(e *server.Entry) ([]byte, error) {
	p := placementOf(e)
	if url, remoteID, ok := c.owner(p); ok {
		if body, err := c.get(url + "/v1/jobs/" + remoteID + "/snapshot"); err == nil {
			return body, nil
		}
	}
	if p == nil {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshot, nil
}

// Record keeps nothing: a coordinator's traces live in memory only.
func (c *Coordinator) Record(*server.Entry, server.TraceEvent) {}

// Health adds the coordinator's role and membership to /healthz.
func (c *Coordinator) Health(h *server.Health) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h.Role = "coordinator"
	h.Fleet = &server.Fleet{Nodes: len(c.nodes)}
	for _, n := range c.nodes {
		if n.alive {
			h.Alive++
		}
	}
}

// ---------------------------------------------------------------------
// Maintenance: death sweep, failover, checkpoint mirror.

func (c *Coordinator) maintain() {
	ticker := time.NewTicker(c.cfg.PullEvery)
	defer ticker.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-ticker.C:
			c.sweep()
			c.reassignPending()
			c.mirror()
		}
	}
}

// sweep declares workers dead once their silence exceeds the miss
// budget and fails their jobs over.
func (c *Coordinator) sweep() {
	limit := time.Duration(c.cfg.MissBudget) * c.cfg.HeartbeatEvery
	now := time.Now()
	c.mu.Lock()
	var dead []string
	for name, n := range c.nodes {
		if n.alive && now.Sub(n.lastBeat) > limit {
			dead = append(dead, name)
		}
	}
	c.mu.Unlock()
	sort.Strings(dead)
	for _, name := range dead {
		c.failNode(name, fmt.Sprintf("missed %d heartbeats", c.cfg.MissBudget))
	}
}

// failNode marks a worker dead, removes it from the ring, and
// re-enqueues its non-terminal jobs on survivors — from their latest
// mirrored checkpoint when one exists, from scratch otherwise.
func (c *Coordinator) failNode(name, why string) {
	c.mu.Lock()
	n, ok := c.nodes[name]
	if !ok || !n.alive {
		c.mu.Unlock()
		return
	}
	n.alive = false
	c.ring.Remove(name)
	var orphans []*server.Entry
	for _, e := range c.front.Entries() {
		p := placementOf(e)
		if p == nil || e.Status().State.Terminal() {
			continue
		}
		p.mu.Lock()
		if p.node == name {
			p.node, p.remoteID, p.pending = "", "", true
			orphans = append(orphans, e)
		}
		p.mu.Unlock()
	}
	c.mu.Unlock()
	c.metrics.nodeFailures.Inc()
	slog.Warn("cluster: worker dead, failing its jobs over", "node", name, "why", why, "jobs", len(orphans))
	for _, e := range orphans {
		c.metrics.jobsOrphaned.Inc()
		c.front.Trace(e, TraceFailover, "worker "+name+" "+why, 0)
		c.reassign(e)
	}
}

// reassignPending retries orphans left unassigned by a failed
// reassignment (e.g. there were no survivors at the time).
func (c *Coordinator) reassignPending() {
	for _, e := range c.front.Entries() {
		c.reassign(e)
	}
}

// reassign places a pending orphan on a survivor. A user-canceled orphan
// settles instead of resurrecting; a resumable orphan goes through POST
// /v1/jobs/resume with the mirrored checkpoint.
func (c *Coordinator) reassign(e *server.Entry) {
	p := placementOf(e)
	if p == nil {
		return
	}
	p.mu.Lock()
	claimed, snapshot := p.pending, p.snapshot
	p.pending = false
	p.mu.Unlock()
	if !claimed || e.Status().State.Terminal() {
		return
	}
	if e.UserCanceled() {
		c.front.Settle(e, server.StateCanceled, nil, "canceled")
		return
	}
	err := c.place(e, p, snapshot)
	var rf *server.Refusal
	if err != nil {
		// Stay pending, retried next sweep: live workers may appear, and
		// backpressure clears. A worker's persistent rejection (a snapshot
		// from a different build) is visible in the logs rather than
		// silently failing the job.
		p.mu.Lock()
		p.pending = p.node == ""
		p.mu.Unlock()
		if errors.As(err, &rf) {
			slog.Warn("cluster: handoff rejected", "job_id", e.ID(), "code", rf.Code, "err", rf.Body.Error)
		} else {
			slog.Warn("cluster: job pending", "job_id", e.ID(), "err", err)
		}
		return
	}
	from := "scratch"
	c.metrics.jobsRehomed.Inc()
	if snapshot != nil {
		from = "checkpoint"
		c.metrics.jobsResumed.Inc()
	}
	p.mu.Lock()
	owner := p.node
	p.mu.Unlock()
	slog.Info("cluster: job failed over", "job_id", e.ID(), "node", owner, "from", from)
}

// mirror pulls every running job's latest checkpoint coordinator-side,
// which is what makes failover a resume rather than a restart.
func (c *Coordinator) mirror() {
	for _, e := range c.front.Entries() {
		p := placementOf(e)
		if e.Status().State != server.StateRunning {
			continue
		}
		url, remoteID, ok := c.owner(p)
		if !ok {
			continue
		}
		body, err := c.get(url + "/v1/jobs/" + remoteID + "/snapshot")
		if err != nil || len(body) == 0 {
			continue
		}
		p.mu.Lock()
		p.snapshot = body
		p.mu.Unlock()
		c.metrics.mirrorPulls.Inc()
	}
	c.lastMirror.Store(time.Now().UnixNano())
}
