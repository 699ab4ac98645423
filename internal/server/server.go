// Package server is the job service of the reproduction: an HTTP front
// end over the internal/job registry that turns the one-shot Run API
// into an asynchronous submit/poll/stream/cancel service. The paper's
// protocols are long-running probabilistic computations (Theorem 1's
// counting simulates ~10^13 scheduler steps at n = 10^6 on the urn
// engine), which is exactly the workload shape that wants a daemon: a
// client submits a Job, gets an id back immediately, and then polls the
// typed Result envelope, streams NDJSON progress frames, or cancels —
// all on the Job/Result/RunContext plumbing the engines already have.
//
//	POST   /v1/jobs             submit a Job (JSON), 202 + Status (200 on a cache hit)
//	GET    /v1/jobs             list every submission's Status
//	GET    /v1/jobs/{id}        one job's Status (Result once terminal)
//	GET    /v1/jobs/{id}/result the bare Result envelope, golden-pinned bytes
//	GET    /v1/jobs/{id}/events NDJSON progress frames, then one result frame
//	DELETE /v1/jobs/{id}        cancel (queued or mid-run)
//	GET    /v1/protocols        the registry's Spec schemas
//	GET    /healthz             liveness + pool/cache counters
//
// The routes are served by a Front (front.go), which the cluster
// coordinator shares; Server is the Front's local Executor. Execution
// happens on a bounded runner.Pool: submissions beyond the queue
// capacity are rejected with 503 (backpressure, not buffering), and
// identical deterministic submissions — same canonical job identity per
// job.Job.CacheKey — are answered from an LRU result cache without
// re-simulation. Shutdown drains gracefully: in-flight jobs are canceled
// through their contexts (their Results carry Reason == "canceled"),
// queued jobs are rejected, and new submissions get 503.
package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"time"

	"shapesol/internal/job"
	"shapesol/internal/obs"
	"shapesol/internal/runner"
	"shapesol/internal/snap"
)

// Config parameterizes a Server. The zero value is usable: Default
// registry, one worker per core, a 64-deep queue, a 256-entry cache and
// a 100ms progress-frame throttle.
type Config struct {
	// Registry resolves protocol names; nil means job.Default.
	Registry *job.Registry
	// Workers is the pool size; values < 1 mean "all cores".
	Workers int
	// Queue bounds the number of accepted-but-not-started jobs; beyond
	// it, POST /v1/jobs answers 503. Values < 1 mean 64.
	Queue int
	// CacheSize bounds the LRU result cache; 0 means 256, negative
	// disables caching.
	CacheSize int
	// MaxJobs bounds the retained job records: beyond it, the oldest
	// settled jobs are evicted as new submissions arrive (their ids then
	// answer 404). Values < 1 mean 4096.
	MaxJobs int
	// FrameInterval throttles progress frames per job: at most one frame
	// per interval is fanned out to stream subscribers (the engines call
	// Progress every CheckEvery = 256 steps, far too often to serialize
	// onto an HTTP stream). 0 means 100ms; negative publishes every
	// callback (tests).
	FrameInterval time.Duration
	// DataDir, when set, makes the daemon durable: an append-only journal
	// of admissions and settlements (replayed into the store and result
	// cache at boot) plus periodic snapshots of running jobs, from which
	// interrupted work is re-enqueued at the next boot. Empty keeps the
	// daemon fully in-memory.
	DataDir string
	// CheckpointEvery throttles the running-job snapshots: at most one
	// checkpoint write per interval per job, on the engines' Progress
	// cadence. 0 means 2s; negative checkpoints on every callback
	// (tests). Ignored without a DataDir.
	CheckpointEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.Queue < 1 {
		c.Queue = 64
	}
	if c.FrameInterval == 0 {
		c.FrameInterval = 100 * time.Millisecond
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 2 * time.Second
	}
	return c
}

// Server is the standalone (and worker) job service: the shared Front
// with a local executor behind it. Create with New, serve via ServeHTTP
// (it is an http.Handler), stop with Shutdown.
type Server struct {
	*Front
	cfg     Config
	pool    *runner.Pool
	persist *persister // nil without a DataDir

	engines           map[job.Engine]*obs.EngineMetrics
	fsync, checkpoint *obs.Histogram

	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New builds a Server and starts its worker pool. With a Config.DataDir
// it first recovers the previous incarnation's state: journaled
// settlements are reloaded into the store and the result cache, and jobs
// that were interrupted mid-run (crash or drain) are re-enqueued — from
// their latest checkpoint when one exists, from scratch otherwise.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, pool: runner.NewPool(cfg.Workers, cfg.Queue)}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.Front = NewFront(cfg.Registry, cfg.CacheSize, cfg.MaxJobs, "j", "server", s)
	s.registerMetrics()
	if cfg.DataDir != "" {
		p, err := openPersister(cfg.DataDir, s.fsync, s.checkpoint)
		if err != nil {
			s.pool.Close()
			return nil, err
		}
		s.persist = p
		if err := s.recover(); err != nil {
			s.pool.Close()
			p.close()
			return nil, err
		}
	}
	return s, nil
}

// recover replays the journal into the store and cache and re-enqueues
// every interrupted job, preferring its latest checkpoint.
func (s *Server) recover() error {
	replayed, maxSeq, err := s.persist.replay()
	if err != nil {
		return err
	}
	// Keep the id sequence ahead of everything journaled, so fresh
	// submissions never collide with recovered ids.
	s.store.ensureSeq(maxSeq)
	for _, r := range replayed {
		nj, spec, err := s.reg.Normalize(r.job)
		if err != nil {
			// A journal from a build with different specs; surface the job
			// as failed rather than dropping it silently.
			s.store.add(&Entry{id: r.id, job: r.job, state: StateFailed, errMsg: "recovery: " + err.Error(), trace: r.events})
			s.persist.removeCheckpoint(r.id)
			continue
		}
		e := &Entry{id: r.id, job: nj, spec: spec, key: nj.CacheKey(), state: StateQueued, trace: r.events}
		if r.terminal {
			e.state, e.errMsg, e.result = r.state, r.errMsg, r.result
			s.store.add(e)
			if r.state == StateDone && r.result != nil {
				s.cache.Put(e.key, *r.result)
			}
			s.persist.removeCheckpoint(r.id)
			continue
		}
		// Interrupted: re-enqueue, resuming from the checkpoint if there is
		// a valid one.
		if data, err := s.persist.readCheckpoint(r.id); err == nil {
			if snapshot, err := snap.Decode(data); err != nil {
				slog.Warn("server: checkpoint unusable, restarting from scratch", "job_id", r.id, "err", err)
			} else if rj, rspec, err := s.reg.ResumeJob(snapshot); err != nil {
				slog.Warn("server: checkpoint rejected, restarting from scratch", "job_id", r.id, "err", err)
			} else {
				e.job, e.spec, e.resumed = rj, rspec, true
				e.steps.Store(snapshot.Steps)
			}
		} else if !errors.Is(err, fs.ErrNotExist) {
			slog.Warn("server: checkpoint unreadable, restarting from scratch", "job_id", r.id, "err", err)
		}
		s.store.add(e)
		s.Trace(e, TraceRecovered, "re-enqueued at boot", e.steps.Load())
		if err := s.submit(e); err != nil {
			s.Settle(e, StateFailed, nil, "recovery: "+err.Error())
		}
	}
	return nil
}

// submit queues e on the pool with a cancelable run context.
func (s *Server) submit(e *Entry) error {
	ctx, cancel := context.WithCancel(s.baseCtx)
	e.SetExt(context.CancelFunc(cancel))
	if err := s.pool.TrySubmit(func() { s.execute(ctx, e) }); err != nil {
		cancel()
		if errors.Is(err, runner.ErrQueueFull) {
			return errors.New("queue full")
		}
		return errors.New("server draining")
	}
	return nil
}

// Start queues an admitted entry on the pool. Its admission events are
// traced first, so they precede the worker's own; the journal records the
// admission only once the pool accepted it. A resumed admission first
// seeds the new id's checkpoint with the uploaded snapshot: if the daemon
// dies before the first fresh checkpoint, boot recovery resumes from the
// uploaded state instead of scratch, and a settling job reaps this file
// rather than racing it.
func (s *Server) Start(e *Entry, snapshot []byte) error {
	if snapshot != nil && s.persist != nil {
		if err := s.persist.writeCheckpoint(e.id, snapshot); err != nil {
			slog.Warn("server: seed checkpoint", "job_id", e.id, "err", err)
		}
	}
	s.TraceSubmitted(e)
	if e.job.Restore != nil {
		s.Trace(e, TraceResumed, "from snapshot", e.job.Restore.Steps)
	}
	s.Trace(e, TraceQueued, "", 0)
	if err := s.submit(e); err != nil {
		if s.persist != nil {
			s.persist.removeCheckpoint(e.id)
		}
		return err
	}
	if s.persist != nil {
		if err := s.persist.appendSubmit(e.id, e.job); err != nil {
			slog.Warn("server: journal submit", "job_id", e.id, "err", err)
		}
	}
	return nil
}

// Cancel settles a queued entry to canceled at once, and cancels a
// running one's context: the engine settles it within one CheckEvery
// window.
func (s *Server) Cancel(e *Entry) {
	if e.cancelQueued("canceled") {
		s.Trace(e, TraceSettled, string(StateCanceled)+" while queued", 0)
	}
	if cancel, ok := e.Ext().(context.CancelFunc); ok {
		cancel()
	}
}

// Snapshot reads the job's latest persisted checkpoint.
func (s *Server) Snapshot(e *Entry) ([]byte, error) {
	if s.persist == nil {
		return nil, errors.New("daemon runs without -data-dir; snapshots are not persisted")
	}
	data, err := s.persist.readCheckpoint(e.id)
	if err != nil {
		return nil, nil
	}
	return data, nil
}

// Record journals a trace event when the daemon is durable, with the
// admission of a cache hit (which never reaches Start) on "cache-hit" and
// the terminal Status on "settled". Trace events are un-fsynced appends
// that ride the journal's ordering; losing the trace tail on kill -9 is
// acceptable, losing admissions or results is not. Journal failures are
// logged, not fatal — the daemon keeps serving from memory.
func (s *Server) Record(e *Entry, ev TraceEvent) {
	if s.persist == nil {
		return
	}
	err := s.persist.appendEvent(e.id, ev)
	switch ev.Event {
	case TraceCacheHit:
		err = errors.Join(err, s.persist.appendSubmit(e.id, e.job))
	case TraceSettled:
		st := e.Status()
		err = errors.Join(err, s.persist.appendResult(e.id, st.State, st.Error, st.Result))
		s.persist.removeCheckpoint(e.id)
	}
	if err != nil {
		slog.Warn("server: journal", "job_id", e.id, "event", ev.Event, "err", err)
	}
}

// Health adds nothing: a daemon's /healthz is the Front's own.
func (s *Server) Health(*Health) {}

// Shutdown drains the service: new submissions and queued jobs are
// rejected, in-flight jobs are canceled through their contexts (each
// finishes promptly — within one CheckEvery window — with Reason ==
// "canceled"), and Shutdown returns once every worker has recorded its
// job's terminal Status, or with ctx's error if that takes longer than
// the caller allows.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	for _, e := range s.store.all() {
		e.cancelQueued("server draining")
	}
	s.baseCancel()
	done := make(chan struct{})
	go func() {
		s.pool.Close()
		close(done)
	}()
	select {
	case <-done:
		s.persist.close()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// execute is the worker-side of one submission: run the normalized job
// with a progress publisher attached and settle the entry.
func (s *Server) execute(ctx context.Context, e *Entry) {
	// Release the per-job child context whichever way the run ends, so
	// finished jobs do not accumulate in the base context's children.
	defer e.Ext().(context.CancelFunc)()
	// A panic must not take the daemon (and every other running job) down
	// with it: the engines validate restored snapshots, but snapshots
	// cross a trust boundary (POST /v1/jobs/resume, on-disk checkpoints),
	// so any residual hole fails just this job.
	defer func() {
		if r := recover(); r != nil {
			s.Settle(e, StateFailed, nil, fmt.Sprintf("panic: %v", r))
		}
	}()
	if !e.tryStart() {
		return // canceled while queued
	}
	s.Trace(e, TraceRunning, "", e.steps.Load())
	jj := e.job
	// Attach the per-engine fleet counters; like Progress, Metrics is
	// observation-only and invisible to CacheKey and the goldens.
	jj.Metrics = s.engines[jj.Engine]
	var lastFrame time.Time
	jj.Progress = func(steps int64) {
		e.steps.Store(steps)
		if s.cfg.FrameInterval > 0 {
			now := time.Now()
			if now.Sub(lastFrame) < s.cfg.FrameInterval {
				return
			}
			lastFrame = now
		}
		e.Publish(Frame{Type: "progress", ID: e.id, Steps: steps, State: StateRunning})
	}
	if s.persist != nil {
		var lastCp time.Time
		jj.Checkpoint = func(steps int64, capture func() (*snap.Snapshot, error)) {
			if s.cfg.CheckpointEvery > 0 {
				now := time.Now()
				if now.Sub(lastCp) < s.cfg.CheckpointEvery {
					return
				}
				lastCp = now
			}
			snapshot, err := capture()
			var data []byte
			if err == nil {
				data, err = snapshot.Encode()
			}
			if err == nil {
				err = s.persist.writeCheckpoint(e.id, data)
			}
			if err != nil {
				slog.Warn("server: checkpoint", "job_id", e.id, "steps", steps, "err", err)
				return
			}
			s.Trace(e, TraceCheckpointed, "", steps)
		}
	}
	res, err := job.RunNormalized(ctx, jj, e.spec)
	switch {
	case err != nil:
		s.Settle(e, StateFailed, nil, err.Error())
	case res.Reason != job.ReasonCanceled:
		s.Settle(e, StateDone, &res, "")
	case e.userCanceled.Load():
		// A user DELETE settles the job for good.
		s.Settle(e, StateCanceled, &res, "")
	default:
		// A drain (or any other parent-context cancellation) is an
		// interruption: the journal keeps the admission open and the
		// checkpoint in place, so the next boot re-enqueues the job from
		// where it stopped.
		e.finish(StateCanceled, &res, "")
	}
}
