package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"shapesol/internal/job"
	"shapesol/internal/server"
)

// ---------------------------------------------------------------------
// Ring.

func TestRingOwnerDeterministic(t *testing.T) {
	r := NewRing(64)
	r.Add("a")
	r.Add("b")
	r.Add("c")
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("proto|urn|seed=%d", i)
		first := r.Owner(key)
		if first == "" {
			t.Fatalf("no owner for %q", key)
		}
		for rep := 0; rep < 5; rep++ {
			if got := r.Owner(key); got != first {
				t.Fatalf("owner of %q flapped: %q then %q", key, first, got)
			}
		}
	}
}

func TestRingRemovalOnlyRemapsDepartedKeys(t *testing.T) {
	r := NewRing(64)
	r.Add("a")
	r.Add("b")
	r.Add("c")
	before := make(map[string]string)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		before[key] = r.Owner(key)
	}
	r.Remove("b")
	for key, owner := range before {
		got := r.Owner(key)
		if owner == "b" {
			if got == "b" || got == "" {
				t.Fatalf("key %q still maps to removed node (%q)", key, got)
			}
			continue
		}
		if got != owner {
			t.Fatalf("key %q moved %q -> %q though its owner survived", key, owner, got)
		}
	}
	if got := r.Len(); got != 2 {
		t.Fatalf("Len = %d after removal, want 2", got)
	}
}

func TestRingEmptyAndIdempotent(t *testing.T) {
	r := NewRing(0) // exercises the <1 -> 64 default
	if got := r.Owner("anything"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	r.Add("a")
	r.Add("a")
	if got := r.Len(); got != 1 {
		t.Fatalf("double Add: Len = %d, want 1", got)
	}
	r.Remove("ghost")
	r.Remove("a")
	r.Remove("a")
	if got := r.Owner("anything"); got != "" {
		t.Fatalf("emptied ring owner = %q, want empty", got)
	}
}

// ---------------------------------------------------------------------
// Test harness: a coordinator plus real workers over httptest.

// testWorker is one worker: a real server.Server over httptest plus its
// registration agent.
type testWorker struct {
	name string
	svc  *server.Server
	ts   *httptest.Server
	stop context.CancelFunc
}

// kill simulates kill -9 from the cluster's point of view: the agent
// stops heartbeating and the HTTP listener goes away. (The in-process
// pool may keep crunching — irrelevant, nothing can reach it.)
func (w *testWorker) kill() {
	w.stop()
	w.ts.CloseClientConnections()
	w.ts.Close()
}

type testCluster struct {
	coord   *Coordinator
	ts      *httptest.Server
	workers []*testWorker
}

// startCluster brings up a coordinator with fast test cadences and n
// durable workers, and waits until all of them are registered. coordCfg
// overrides individual coordinator knobs (zero fields keep the fast
// test defaults).
func startCluster(t *testing.T, n int, workerCfg server.Config, coordCfg Config) *testCluster {
	t.Helper()
	if coordCfg.HeartbeatEvery == 0 {
		coordCfg.HeartbeatEvery = 25 * time.Millisecond
	}
	if coordCfg.MissBudget == 0 {
		coordCfg.MissBudget = 3
	}
	if coordCfg.PullEvery == 0 {
		coordCfg.PullEvery = 10 * time.Millisecond
	}
	coord := New(coordCfg)
	t.Cleanup(coord.Shutdown)
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)

	tc := &testCluster{coord: coord, ts: cts}
	for i := 0; i < n; i++ {
		tc.addWorker(t, workerCfg)
	}
	waitFor(t, time.Second, func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return coord.ring.Len() == n
	}, "all workers registered")
	return tc
}

func (tc *testCluster) addWorker(t *testing.T, cfg server.Config) *testWorker {
	t.Helper()
	cfg.DataDir = t.TempDir()
	svc, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	name := fmt.Sprintf("w%d", len(tc.workers)+1)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	agent := &Agent{
		Coordinator: tc.ts.URL,
		Name:        name,
		Advertise:   ts.URL,
	}
	go agent.Run(ctx)
	w := &testWorker{name: name, svc: svc, ts: ts, stop: cancel}
	tc.workers = append(tc.workers, w)
	return w
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// httpJSON drives one request against the coordinator and decodes the
// JSON response.
func httpJSON(t *testing.T, method, url string, body []byte, into any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func submitJob(t *testing.T, base string, j job.Job) server.Status {
	t.Helper()
	body, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var st server.Status
	code := httpJSON(t, http.MethodPost, base+"/v1/jobs", body, &st)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	return st
}

func jobStatus(t *testing.T, base, id string) server.Status {
	t.Helper()
	var st server.Status
	if code := httpJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &st); code != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, code)
	}
	return st
}

func rawResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: HTTP %d: %s", id, resp.StatusCode, data)
	}
	return data
}

var wallRe = regexp.MustCompile(`"wall_ns":( ?)\d+`)

// zeroWall zeroes the one non-deterministic Result field, in indented
// and compact JSON alike.
func zeroWall(b []byte) []byte {
	return wallRe.ReplaceAll(b, []byte(`"wall_ns":${1}0`))
}

// ---------------------------------------------------------------------
// Failover: worker death mid-run resumes on a survivor with a
// byte-identical Result.

func TestFailoverByteIdenticalResult(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second failover run")
	}
	// A generous miss budget: the worker is simultaneously simulating
	// n=10^6 and writing ~MB checkpoints every 5ms, so short scheduling
	// stalls must not flap it dead before we kill it on purpose.
	tc := startCluster(t, 2, server.Config{CheckpointEvery: 5 * time.Millisecond},
		Config{HeartbeatEvery: 50 * time.Millisecond, MissBudget: 8})

	// The uninterrupted reference: the same job on a plain standalone
	// daemon (no cluster anywhere near it).
	ref, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref)
	defer refTS.Close()
	j := job.Job{Protocol: "counting-upper-bound", Engine: "urn", Seed: 9, Params: job.Params{N: 1000000}}
	refSt := submitJob(t, refTS.URL, j)
	waitFor(t, 30*time.Second, func() bool {
		return jobStatus(t, refTS.URL, refSt.ID).State.Terminal()
	}, "reference run to finish")
	want := zeroWall(rawResult(t, refTS.URL, refSt.ID))

	// The cluster run: wait until the coordinator holds a mirrored
	// checkpoint of it, then kill the owning worker.
	st := submitJob(t, tc.ts.URL, j)
	var owner string
	waitFor(t, 30*time.Second, func() bool {
		var nodes []NodeStatus
		httpJSON(t, http.MethodGet, tc.ts.URL+"/v1/cluster/nodes", nil, &nodes)
		for _, n := range nodes {
			for _, nj := range n.Jobs {
				if nj.ID == st.ID && nj.Snapshot && nj.State == server.StateRunning {
					owner = n.Name
					return true
				}
			}
		}
		return jobStatus(t, tc.ts.URL, st.ID).State.Terminal() // bail out: too fast to kill
	}, "a mirrored checkpoint of the running job")
	if owner == "" {
		t.Fatal("job finished before a checkpoint was mirrored; cannot exercise failover")
	}
	for _, w := range tc.workers {
		if w.name == owner {
			w.kill()
		}
	}

	waitFor(t, 60*time.Second, func() bool {
		return jobStatus(t, tc.ts.URL, st.ID).State.Terminal()
	}, "failed-over job to finish")
	final := jobStatus(t, tc.ts.URL, st.ID)
	if final.State != server.StateDone {
		t.Fatalf("failed-over job state = %s (error %q), want done", final.State, final.Error)
	}
	if !final.Resumed {
		t.Fatalf("failed-over job not marked resumed: %+v", final)
	}

	got := zeroWall(rawResult(t, tc.ts.URL, st.ID))
	if !bytes.Equal(got, want) {
		t.Fatalf("failed-over Result differs from uninterrupted run:\ncluster:  %s\nstandalone: %s", got, want)
	}

	// The dead worker must be reported dead, and the survivor owns the job.
	var nodes []NodeStatus
	httpJSON(t, http.MethodGet, tc.ts.URL+"/v1/cluster/nodes", nil, &nodes)
	for _, n := range nodes {
		if n.Name == owner && n.Alive {
			t.Fatalf("killed worker %s still reported alive", owner)
		}
	}

	// The death and resume are visible in the fleet metrics and in the
	// record's lifecycle trace.
	mb := scrapeMetrics(t, tc.ts.URL)
	for _, sample := range []string{
		"shapesol_cluster_node_failures_total",
		"shapesol_cluster_jobs_failed_over_total",
		"shapesol_cluster_jobs_reassigned_total",
		"shapesol_cluster_failover_resumes_total",
	} {
		if got := metricValue(t, mb, sample); got < 1 {
			t.Errorf("%s = %v, want >= 1 after a failover", sample, got)
		}
	}
	trace := jobTrace(t, tc.ts.URL, st.ID)
	for _, want := range []string{TraceRouted, TraceFailover, server.TraceSettled} {
		if !hasEvent(trace, want) {
			t.Errorf("failover trace %v missing %q", trace, want)
		}
	}
}

// ---------------------------------------------------------------------
// Coordinator restart: a fresh incarnation starts with an empty ring
// and rebuilds it from workers re-registering off the heartbeat 404.

func TestCoordinatorRestartRebuildsRing(t *testing.T) {
	first := New(Config{
		HeartbeatEvery: 25 * time.Millisecond,
		MissBudget:     3,
		PullEvery:      10 * time.Millisecond,
	})
	var current atomic.Pointer[Coordinator]
	current.Store(first)
	cts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	defer cts.Close()

	tc := &testCluster{coord: first, ts: cts}
	for i := 0; i < 2; i++ {
		tc.addWorker(t, server.Config{})
	}
	waitFor(t, time.Second, func() bool {
		first.mu.Lock()
		defer first.mu.Unlock()
		return first.ring.Len() == 2
	}, "workers registered with the first coordinator")

	// "Restart": a brand-new coordinator takes over the same address.
	second := New(Config{
		HeartbeatEvery: 25 * time.Millisecond,
		MissBudget:     3,
		PullEvery:      10 * time.Millisecond,
	})
	t.Cleanup(second.Shutdown)
	current.Store(second)
	first.Shutdown()

	waitFor(t, 2*time.Second, func() bool {
		second.mu.Lock()
		defer second.mu.Unlock()
		return second.ring.Len() == 2
	}, "workers re-registered with the restarted coordinator")

	// And the rebuilt cluster serves jobs.
	st := submitJob(t, cts.URL, job.Job{Protocol: "counting-upper-bound", Params: job.Params{N: 50}})
	waitFor(t, 10*time.Second, func() bool {
		return jobStatus(t, cts.URL, st.ID).State.Terminal()
	}, "job on the rebuilt cluster")
	if got := jobStatus(t, cts.URL, st.ID); got.State != server.StateDone {
		t.Fatalf("job on rebuilt cluster finished %s (error %q)", got.State, got.Error)
	}
}

// ---------------------------------------------------------------------
// Routing determinism: identical submissions land on the node that
// already holds the cached Result.

func TestRoutingDeterministicAndCacheAffinity(t *testing.T) {
	// Coordinator cache disabled so the repeat goes over the wire and the
	// hit must come from the worker the ring routed to.
	coord := New(Config{
		HeartbeatEvery: 25 * time.Millisecond,
		MissBudget:     3,
		PullEvery:      10 * time.Millisecond,
		CacheSize:      -1,
	})
	t.Cleanup(coord.Shutdown)
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)
	tc := &testCluster{coord: coord, ts: cts}
	for i := 0; i < 3; i++ {
		tc.addWorker(t, server.Config{})
	}
	waitFor(t, time.Second, func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return coord.ring.Len() == 3
	}, "workers registered")

	j := job.Job{Protocol: "counting-upper-bound", Engine: "urn", Seed: 4, Params: job.Params{N: 2000}}
	st1 := submitJob(t, cts.URL, j)
	waitFor(t, 10*time.Second, func() bool {
		return jobStatus(t, cts.URL, st1.ID).State.Terminal()
	}, "first submission")

	owner := func(id string) string {
		var nodes []NodeStatus
		httpJSON(t, http.MethodGet, cts.URL+"/v1/cluster/nodes", nil, &nodes)
		for _, n := range nodes {
			for _, nj := range n.Jobs {
				if nj.ID == id {
					return n.Name
				}
			}
		}
		return ""
	}
	first := owner(st1.ID)
	if first == "" {
		t.Fatalf("job %s not assigned to any node", st1.ID)
	}

	// The identical submission routes to the same worker and is answered
	// from that worker's cache without re-simulation.
	st2 := submitJob(t, cts.URL, j)
	waitFor(t, 10*time.Second, func() bool {
		return jobStatus(t, cts.URL, st2.ID).State.Terminal()
	}, "second submission")
	if got := owner(st2.ID); got != first {
		t.Fatalf("identical submission routed to %q, first went to %q", got, first)
	}
	if got := jobStatus(t, cts.URL, st2.ID); !got.Cached {
		t.Fatalf("identical submission not served from the owner's cache: %+v", got)
	}

	// And the two results are byte-identical.
	if a, b := zeroWall(rawResult(t, cts.URL, st1.ID)), zeroWall(rawResult(t, cts.URL, st2.ID)); !bytes.Equal(a, b) {
		t.Fatalf("repeat result differs:\nfirst:  %s\nsecond: %s", a, b)
	}
}

// TestCoordinatorCacheHit pins the coordinator-side LRU: with it
// enabled, the repeat of a finished job is answered without a network
// hop (status 200, cached, raw bytes equal) even after every worker is
// gone.
func TestCoordinatorCacheHit(t *testing.T) {
	tc := startCluster(t, 1, server.Config{}, Config{})
	j := job.Job{Protocol: "counting-upper-bound", Engine: "urn", Seed: 5, Params: job.Params{N: 1000}}
	st := submitJob(t, tc.ts.URL, j)
	waitFor(t, 10*time.Second, func() bool {
		return jobStatus(t, tc.ts.URL, st.ID).State.Terminal()
	}, "seed run")
	want := rawResult(t, tc.ts.URL, st.ID) // mirrors the raw bytes into the LRU

	tc.workers[0].kill()
	waitFor(t, 2*time.Second, func() bool {
		tc.coord.mu.Lock()
		defer tc.coord.mu.Unlock()
		return tc.coord.ring.Len() == 0
	}, "worker declared dead")

	body, _ := json.Marshal(j)
	var hit server.Status
	if code := httpJSON(t, http.MethodPost, tc.ts.URL+"/v1/jobs", body, &hit); code != http.StatusOK {
		t.Fatalf("cache-hit submit: HTTP %d, want 200", code)
	}
	if !hit.Cached || hit.State != server.StateDone {
		t.Fatalf("repeat with no workers not cache-served: %+v", hit)
	}
	if got := rawResult(t, tc.ts.URL, hit.ID); !bytes.Equal(got, want) {
		t.Fatalf("coordinator cache replayed different bytes:\ngot:  %s\nwant: %s", got, want)
	}
}

// ---------------------------------------------------------------------
// API.md pin: every route registered by internal/server and
// internal/cluster must be documented, and nothing else.

func TestAPIDocCoversEveryRoute(t *testing.T) {
	data, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatalf("API.md missing: %v", err)
	}
	headingRe := regexp.MustCompile("(?m)^### `((?:GET|POST|DELETE) [^`]+)`")
	documented := make(map[string]bool)
	for _, m := range headingRe.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]] = true
	}
	want := make(map[string]bool)
	for _, r := range server.Routes() {
		want[r] = true
	}
	for _, r := range Routes() {
		want[r] = true
	}
	for r := range want {
		if !documented[r] {
			t.Errorf("route %q registered but not documented in API.md", r)
		}
	}
	for r := range documented {
		if !want[r] {
			t.Errorf("API.md documents %q but no mux registers it", r)
		}
	}
}
