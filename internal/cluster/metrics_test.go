package cluster

import (
	"io"
	"net/http"
	"regexp"
	"strconv"
	"testing"
	"time"

	"shapesol/internal/job"
	"shapesol/internal/server"
)

// scrapeMetrics fetches a /metrics exposition over HTTP.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", resp.StatusCode, data)
	}
	return string(data)
}

// metricValue extracts one exposition sample's value (exact name+label
// match), failing the test when it is absent.
func metricValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric sample %q not in exposition:\n%s", sample, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric sample %q has non-numeric value %q", sample, m[1])
	}
	return v
}

// jobTrace fetches a job's lifecycle trace event names.
func jobTrace(t *testing.T, base, id string) []string {
	t.Helper()
	var body struct {
		ID     string              `json:"id"`
		Events []server.TraceEvent `json:"events"`
	}
	if code := httpJSON(t, http.MethodGet, base+"/v1/jobs/"+id+"/trace", nil, &body); code != http.StatusOK {
		t.Fatalf("trace %s: HTTP %d", id, code)
	}
	out := make([]string, len(body.Events))
	for i, ev := range body.Events {
		out[i] = ev.Event
	}
	return out
}

func hasEvent(events []string, want string) bool {
	for _, e := range events {
		if e == want {
			return true
		}
	}
	return false
}

func TestCoordinatorMetricsAndTrace(t *testing.T) {
	tc := startCluster(t, 2, server.Config{}, Config{})

	body := scrapeMetrics(t, tc.ts.URL)
	if got := metricValue(t, body, "shapesol_cluster_ring_size"); got != 2 {
		t.Fatalf("ring_size = %v, want 2", got)
	}
	if got := metricValue(t, body, "shapesol_cluster_nodes_alive"); got != 2 {
		t.Fatalf("nodes_alive = %v, want 2", got)
	}
	// Heartbeat staleness: one row per worker, each fresher than the
	// death limit (MissBudget * HeartbeatEvery = 75ms in this harness).
	for _, worker := range []string{"w1", "w2"} {
		stale := metricValue(t, body, `shapesol_cluster_heartbeat_staleness_seconds{node="`+worker+`"}`)
		if stale < 0 || stale > 1 {
			t.Fatalf("staleness of %s = %vs, want a fresh heartbeat", worker, stale)
		}
	}

	// One small job end to end: the coordinator's trace records the
	// routing decision, and the job census reflects the settlement.
	st := submitJob(t, tc.ts.URL, job.Job{Protocol: "counting-upper-bound", Engine: "urn", Params: job.Params{N: 64}})
	waitFor(t, 10*time.Second, func() bool {
		return jobStatus(t, tc.ts.URL, st.ID).State.Terminal()
	}, "job to settle")

	events := jobTrace(t, tc.ts.URL, st.ID)
	for _, want := range []string{server.TraceSubmitted, TraceRouted, server.TraceSettled} {
		if !hasEvent(events, want) {
			t.Fatalf("coordinator trace %v missing %q", events, want)
		}
	}

	// /healthz carries the coordinator's role and membership, and a job
	// that settled without a checkpoint has no snapshot to serve.
	var h server.Health
	if code := httpJSON(t, http.MethodGet, tc.ts.URL+"/healthz", nil, &h); code != http.StatusOK ||
		h.Role != "coordinator" || h.Fleet == nil || h.Nodes != 2 || h.Alive != 2 || h.Jobs != 1 {
		t.Fatalf("coordinator health = %d %+v %+v", code, h, h.Fleet)
	}
	var eb server.ErrorBody
	if code := httpJSON(t, http.MethodGet, tc.ts.URL+"/v1/jobs/"+st.ID+"/snapshot", nil, &eb); code != http.StatusNotFound || eb.Error == "" {
		t.Fatalf("snapshot of a settled job = %d %+v, want 404", code, eb)
	}

	body = scrapeMetrics(t, tc.ts.URL)
	if got := metricValue(t, body, `shapesol_jobs{state="done"}`); got != 1 {
		t.Fatalf("jobs{done} = %v, want 1", got)
	}
	if got := metricValue(t, body, "shapesol_trace_events_total"); got < 3 {
		t.Fatalf("trace_events_total = %v, want >= 3", got)
	}
	// The worker that ran the job exposes the engine's work on its own
	// /metrics; across both workers exactly one ran it.
	var steps float64
	for _, w := range tc.workers {
		wb := scrapeMetrics(t, w.ts.URL)
		steps += metricValue(t, wb, `shapesol_engine_steps_total{engine="urn"}`)
	}
	if steps <= 0 {
		t.Fatalf("no worker reported urn engine steps (total %v)", steps)
	}
}
