package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"shapesol/internal/job"
	"shapesol/internal/runner"
	"shapesol/internal/snap"
)

// fleet is the set of daemons one serving workload runs against.
type fleet struct {
	front *daemon   // where clients send: the standalone daemon or the coordinator
	all   []*daemon // every process, front included
	exec  []*daemon // the processes that execute jobs
}

func (f *fleet) stop() {
	// Workers first, so none re-registers with a coordinator going away.
	for i := len(f.all) - 1; i >= 0; i-- {
		f.all[i].stop()
	}
}

// bootFleet starts the serving processes over dataDir and returns once
// they serve: /healthz answers on a standalone daemon (its journal
// replayed), or the coordinator lists both workers alive.
func bootFleet(cfg config, dataDir string) (*fleet, time.Duration, error) {
	t0 := time.Now()
	if !cfg.cluster() {
		d, err := startDaemon(cfg.daemon, dataDir, "shapesold", "-data-dir", filepath.Join(dataDir, "standalone"))
		if err != nil {
			return nil, 0, err
		}
		f := &fleet{front: d, all: []*daemon{d}, exec: []*daemon{d}}
		took, err := waitReady(d, "/healthz", t0, anyBody)
		if err != nil {
			f.stop()
		}
		return f, took, err
	}
	coord, err := startDaemon(cfg.daemon, dataDir, "coordinator", "-role", "coordinator")
	if err != nil {
		return nil, 0, err
	}
	f := &fleet{front: coord, all: []*daemon{coord}}
	if _, err := waitReady(coord, "/healthz", t0, anyBody); err != nil {
		f.stop()
		return nil, 0, err
	}
	for _, name := range []string{"w1", "w2"} {
		w, err := startDaemon(cfg.daemon, dataDir, name, "-role", "worker", "-coordinator", coord.url,
			"-node-name", name, "-data-dir", filepath.Join(dataDir, name))
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.all = append(f.all, w)
		f.exec = append(f.exec, w)
	}
	took, err := waitReady(coord, "/v1/cluster/nodes", t0, aliveNodes(2))
	if err != nil {
		f.stop()
	}
	return f, took, err
}

// snapCase is one resume upload prepared in set-up: the snapshot bytes,
// its job and the uninterrupted in-process Result it must reproduce.
type snapCase struct {
	job       job.Job
	data      []byte
	expect    []byte
	captureMS float64
}

// makeSnapshots freezes count urn runs mid-way through the Job.Checkpoint
// hook (capture + snap.Encode) and runs each job once more, untouched,
// for the Result its resumption must match byte for byte.
func makeSnapshots(ctx context.Context, seed int64, count int) ([]snapCase, error) {
	idx := runner.Seeds(0, count)
	type made struct {
		c   snapCase
		err error
	}
	outs := runner.Map(runtime.NumCPU(), idx, func(i int64) made {
		j := countingJob(resumeN, deriveSeed(seed, streamResume, uint64(i)))
		var m made
		m.c.job = j
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		calls := 0
		hooked := j
		hooked.Checkpoint = func(_ int64, capture func() (*snap.Snapshot, error)) {
			if calls++; calls != 3 {
				return
			}
			t0 := time.Now()
			s, err := capture()
			if err == nil {
				m.c.data, err = s.Encode()
			}
			m.c.captureMS = float64(time.Since(t0).Nanoseconds()) / 1e6
			m.err = err
			cancel()
		}
		if _, err := job.Run(cctx, hooked); err != nil {
			return made{err: err}
		}
		if m.err == nil && m.c.data == nil {
			m.err = fmt.Errorf("job seed %d finished before its third checkpoint", j.Seed)
		}
		if m.err != nil {
			return m
		}
		res, err := job.Run(ctx, j)
		if err == nil {
			m.c.expect, err = encodeResult(res)
		}
		m.err = err
		return m
	})
	cases := make([]snapCase, count)
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", i, o.err)
		}
		cases[i] = o.c
	}
	return cases, nil
}

// jobRec is one request as the client saw it.
type jobRec struct {
	class           class
	id              string
	t0, sent, end   time.Time // POST sent, POST answered, result frame read
	cached, resumed bool
	raw             []byte  // canonical Result
	wallNS          float64 // engine time inside the daemon (0 when cached)
	err             error   // the request failed or was refused
	verdict         verdict // of the answer, when err is nil
	verr            error   // why the answer failed verification
}

func (r jobRec) ms() float64 { return float64(r.end.Sub(r.t0).Nanoseconds()) / 1e6 }

// run submits one job and, unless the answer is already final, waits on
// its events stream for the result frame.
func (c *client) run(cl class, path, contentType string, body []byte) jobRec {
	rec := jobRec{class: cl, t0: time.Now()}
	st, err := c.post(path, contentType, body)
	rec.sent = time.Now()
	rec.end = rec.sent
	if err != nil {
		rec.err = err
		return rec
	}
	rec.id, rec.cached, rec.resumed = st.ID, st.Cached, st.Resumed
	state, msg, result := st.State, st.Error, st.Result
	if state == "queued" || state == "running" {
		f, err := c.await(st.ID)
		rec.end = time.Now()
		if err != nil {
			rec.err = err
			return rec
		}
		state, msg, result = f.State, f.Error, f.Result
	}
	if state != "done" {
		rec.err = fmt.Errorf("job %s settled %s: %s", st.ID, state, msg)
		return rec
	}
	var w struct {
		WallNS float64 `json:"wall_ns"`
	}
	if err := json.Unmarshal(result, &w); err != nil {
		rec.err = fmt.Errorf("job %s: decode result: %w", st.ID, err)
		return rec
	}
	if !rec.cached {
		rec.wallNS = w.WallNS
	}
	rec.raw, rec.err = canonical(result)
	return rec
}

// submitJob sends a job as JSON through POST /v1/jobs.
func (c *client) submitJob(cl class, j job.Job) jobRec {
	body, err := json.Marshal(j)
	if err != nil {
		return jobRec{class: cl, err: err}
	}
	return c.run(cl, "/v1/jobs", "application/json", body)
}

// serveState is what set-up hands to the measured phase.
type serveState struct {
	hotFirst [][]byte // first computation of each hot-set key
	snaps    []snapCase
}

// prefillJobs is how many unique jobs the untimed pre-phase journals on
// top of the hot set, so boot has a journal to replay.
const prefillJobs = 400

// prefill runs the hot set and the prefill jobs through a fresh fleet
// and records each hot key's first computation, checked against the
// in-process RunMany answer for the same seeds.
func prefill(ctx context.Context, cfg config, f *fleet, st *serveState) error {
	seeds := make([]int64, hotSetSize)
	for i := range seeds {
		seeds[i] = hotJob(cfg.seed, i).Seed
	}
	ref, err := runner.RunMany(ctx, runtime.NumCPU(), countingJob(smallN, 0), seeds)
	if err != nil {
		return fmt.Errorf("hot set in-process: %w", err)
	}
	st.hotFirst = make([][]byte, hotSetSize)
	total := hotSetSize + prefillJobs
	var wg sync.WaitGroup
	errs := make([]error, runtime.NumCPU())
	for k := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(f.front.url)
			defer c.close()
			for i := k; i < total && errs[k] == nil; i += len(errs) {
				// The hot set goes last, so journal replay leaves it in the
				// result cache and the measured phase starts warm.
				h := i - prefillJobs
				j := countingJob(smallN, deriveSeed(cfg.seed, streamPrefill, uint64(i)))
				if h >= 0 {
					j = hotJob(cfg.seed, h)
				}
				rec := c.submitJob(small, j)
				if rec.err != nil {
					errs[k] = rec.err
					return
				}
				if h >= 0 {
					want, err := encodeResult(ref[h])
					if err != nil || !bytes.Equal(rec.raw, want) {
						errs[k] = fmt.Errorf("hot job %d: daemon answer differs from the in-process run", h)
						return
					}
					st.hotFirst[h] = rec.raw
				}
				nj, _, err := job.Normalize(j)
				if err == nil {
					_, err = verify(nj, rec.raw)
				}
				errs[k] = err
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runServe is the serve and cluster workload: set-up, then nproc
// closed-loop clients for the run's seconds.
func runServe(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome(0.99)
	dataDir := filepath.Join(cfg.out, fmt.Sprintf("run-%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("data dir: %w", err)
	}
	defer os.RemoveAll(dataDir)

	st := &serveState{}
	var err error
	// At most ~60 resume uploads a second fit the closed loop; sizing the
	// pool past that keeps every upload a distinct, uncached job.
	if st.snaps, err = makeSnapshots(ctx, cfg.seed, 60*int(cfg.seconds.Seconds())+60); err != nil {
		return nil, err
	}
	f, _, err := bootFleet(cfg, dataDir)
	if err != nil {
		return nil, err
	}
	err = prefill(ctx, cfg, f, st)
	f.stop()
	if err != nil {
		return nil, fmt.Errorf("pre-phase: %w", err)
	}
	for k := 0; k < setupRepeats; k++ {
		var took time.Duration
		if f, took, err = bootFleet(cfg, dataDir); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, took.Seconds())
		if k < setupRepeats-1 {
			f.stop()
		}
	}
	defer f.stop()

	ctl := newClient(f.front.url)
	defer ctl.close()
	before, err := scrapeAll(f)
	if err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()
	recs := make([][]jobRec, clients)
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(f.front.url)
			defer c.close()
			mix := newMix(cfg.seed, k, clients)
			for req := int64(k); ctx.Err() == nil && time.Now().Before(deadline); req += int64(clients) {
				recs[k] = append(recs[k], serveOne(c, mix.next(), st, req, cfg.cluster(), tr))
			}
		}()
	}
	wg.Wait()
	var all []jobRec
	last := start
	for k := range recs {
		for _, rec := range recs[k] {
			out.record(rec.verdict, rec.verr)
			all = append(all, rec)
			if rec.end.After(last) {
				last = rec.end
			}
			if rec.err == nil {
				out.latency(rec.class.String(), rec.ms())
			}
		}
	}
	wall := last.Sub(start).Seconds()
	out.opsPerS = float64(len(out.lat)) / wall
	for _, d := range f.all {
		rss, err := peakRSSMiB(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out.rssMB += rss
	}
	if tr == nil {
		return out, nil
	}
	after, err := scrapeAll(f)
	if err != nil {
		return nil, err
	}
	var scrapes []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := ctl.scrape(); err != nil {
			return nil, err
		}
		scrapes = append(scrapes, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	out.layers = serveLayers(cfg, f, st, all, before, after, wall, out.setup, tr)
	out.layers["obs.scrape_ms"] = median(scrapes)
	if err := restoreLayers(ctx, st, out.layers); err != nil {
		return nil, err
	}
	return out, nil
}

// serveOne sends one request of the mix and verifies the answer.
func serveOne(c *client, r request, st *serveState, req int64, cluster bool, tr *tracer) jobRec {
	rec := serveRequest(c, r, st, req, cluster, tr)
	if rec.err != nil {
		rec.verdict, rec.verr = fail, rec.err
	}
	return rec
}

func serveRequest(c *client, r request, st *serveState, req int64, cluster bool, tr *tracer) jobRec {
	var rec jobRec
	var nj job.Job
	if r.Class == resume {
		rec = c.run(resume, "/v1/jobs/resume", "application/octet-stream", st.snaps[r.Index%len(st.snaps)].data)
	} else {
		t0 := time.Now()
		var err error
		if nj, _, err = job.Normalize(r.Job); err != nil {
			return jobRec{class: r.Class, err: err}
		}
		_ = nj.CacheKey()
		if tr != nil {
			tr.add("job.normalize", req, -1, t0, time.Now())
		}
		rec = c.submitJob(r.Class, r.Job)
	}
	if rec.err != nil {
		return rec
	}
	if tr != nil {
		root := tr.add("request", req, -1, rec.t0, rec.end)
		tr.add("http.submit", req, root, rec.t0, rec.sent)
		if !rec.cached {
			stream := tr.add("http.stream", req, root, rec.sent, rec.end)
			if !cluster {
				if rec.err = traceServer(c, rec, req, stream, tr); rec.err != nil {
					return rec
				}
			}
		}
	}
	switch r.Class {
	case hot:
		if !bytes.Equal(rec.raw, st.hotFirst[r.Index]) {
			rec.verdict, rec.verr = fail, fmt.Errorf("hot key %d: answer %s differs from its first computation", r.Index, rec.id)
		}
		return rec
	case resume:
		sc := st.snaps[r.Index%len(st.snaps)]
		if !rec.resumed || !bytes.Equal(rec.raw, sc.expect) {
			rec.verdict, rec.verr = fail, fmt.Errorf("resume %d (%s): resumed=%v, Result differs from the uninterrupted run",
				r.Index, rec.id, rec.resumed)
		}
		return rec
	}
	rec.verdict, rec.verr = verify(nj, rec.raw)
	return rec
}

// traceServer reads the daemon's own trace of a job and records its
// queue wait and run as spans under the job's stream span. Where a
// daemon span overlaps the POST round trip, only the part after it is
// recorded as attributed time.
func traceServer(c *client, rec jobRec, req int64, parent int, tr *tracer) error {
	body, err := c.get("/v1/jobs/" + rec.id + "/trace")
	if err != nil {
		return err
	}
	var t struct {
		Events []struct {
			TS    time.Time `json:"ts"`
			Event string    `json:"event"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &t); err != nil {
		return fmt.Errorf("decode trace of %s: %w", rec.id, err)
	}
	at := map[string]time.Time{}
	for _, e := range t.Events {
		if _, seen := at[e.Event]; !seen {
			at[e.Event] = e.TS
		}
	}
	q, r, s := at["queued"], at["running"], at["settled"]
	if q.IsZero() || r.IsZero() || s.IsZero() {
		return fmt.Errorf("trace of %s lacks queued/running/settled", rec.id)
	}
	tr.add("server.queue_wait", req, parent, q, r)
	tr.add("server.run", req, parent, r, s)
	later := func(a, b time.Time) time.Time {
		if a.After(b) {
			return a
		}
		return b
	}
	tr.add("attributed.queue_wait", req, parent, later(q, rec.sent), later(r, rec.sent))
	tr.add("attributed.run", req, parent, later(r, rec.sent), later(s, rec.sent))
	return nil
}

// scrapeAll sums the /metrics series of the fleet's processes.
func scrapeAll(f *fleet) (map[string]float64, error) {
	total := map[string]float64{}
	for _, d := range f.all {
		c := newClient(d.url)
		m, err := c.scrape()
		c.close()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// serveLayers derives the serving per-layer metrics of a traced run.
func serveLayers(cfg config, f *fleet, st *serveState, recs []jobRec, before, after map[string]float64,
	wall float64, boots []float64, tr *tracer) map[string]float64 {
	delta := func(series string) float64 { return after[series] - before[series] }
	var cached, executed, engineS float64
	var bytesOut, unattributed []float64
	attributed := map[int64]float64{}
	for _, name := range []string{"http.submit", "attributed.queue_wait", "attributed.run"} {
		for _, s := range tr.named(name) {
			attributed[s.Req] += float64(s.EndNS - s.StartNS)
		}
	}
	for _, s := range tr.named("request") {
		if total := float64(s.EndNS - s.StartNS); total > 0 {
			unattributed = append(unattributed, 1-attributed[s.Req]/total)
		}
	}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		bytesOut = append(bytesOut, float64(len(r.raw)))
		if r.cached {
			cached++
		} else {
			executed++
			engineS += r.wallNS / 1e9
		}
	}
	n := cached + executed
	slots := float64(runtime.NumCPU() * len(f.exec))
	urn := `{engine="urn"}`
	capture := make([]float64, len(st.snaps))
	sizes := make([]float64, len(st.snaps))
	for i, sc := range st.snaps {
		capture[i], sizes[i] = sc.captureMS, float64(len(sc.data))
	}
	l := map[string]float64{
		"job.normalize_us":             median(tr.durations("job.normalize", time.Microsecond)),
		"job.result_bytes":             median(bytesOut),
		"runner.busy_share":            engineS / (slots * wall),
		"urn.effective_per_s":          ratio(delta("shapesol_engine_effective_total"+urn), engineS),
		"urn.alias_rebuilds_per_trial": ratio(delta("shapesol_engine_alias_rebuilds_total"+urn), delta("shapesol_engine_runs_total"+urn)),
		"snap.capture_ms":              median(capture),
		"snap.bytes":                   median(sizes),
		"server.fsync_ms_per_job":      ratio(1000*delta("shapesol_journal_fsync_duration_seconds_sum"), n),
	}
	prefix := "server."
	if cfg.cluster() {
		prefix = "cluster."
		l["cluster.mirror_pulls_per_s"] = delta("shapesol_cluster_mirror_pulls_total") / wall
	} else {
		l["server.queue_wait_ms"] = median(tr.durations("server.queue_wait", time.Millisecond))
		l["server.run_ms"] = median(tr.durations("server.run", time.Millisecond))
		l["server.replay_s"] = median(boots)
		l["server.unattributed_share"] = median(unattributed)
	}
	l[prefix+"submit_ms"] = median(tr.durations("http.submit", time.Millisecond))
	l[prefix+"stream_ms"] = median(tr.durations("http.stream", time.Millisecond))
	l[prefix+"cache_hit_share"] = ratio(cached, n)
	return l
}

// restoreLayers times snap.Decode + job.Resume in-process on a sample of
// the set-up snapshots, checking each against its uninterrupted Result.
func restoreLayers(ctx context.Context, st *serveState, l map[string]float64) error {
	var ms []float64
	for i := 0; i < len(st.snaps) && i < 32; i++ {
		sc := st.snaps[i]
		t0 := time.Now()
		s, err := snap.Decode(sc.data)
		if err != nil {
			return fmt.Errorf("decode snapshot %d: %w", i, err)
		}
		res, err := job.Resume(ctx, s)
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			return fmt.Errorf("resume snapshot %d: %w", i, err)
		}
		got, err := encodeResult(res)
		if err != nil || !bytes.Equal(got, sc.expect) {
			return fmt.Errorf("in-process resume of snapshot %d differs from the uninterrupted run", i)
		}
	}
	l["snap.restore_ms"] = median(ms)
	return nil
}
