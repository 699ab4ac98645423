package server

import (
	"net/http"
	"time"

	"shapesol/internal/job"
	"shapesol/internal/obs"
)

// frontMetrics is the metrics core both roles share: one obs.Registry
// serving GET /metrics, with the per-route latency histogram, the trace
// counter and the cache, draining and jobs-by-state series. Executors
// add their own series to the same registry. Scrape-time values are read
// through funcs and collect hooks, so nothing polls in the background.
type frontMetrics struct {
	reg    *obs.Registry
	routes *obs.HistogramVec
	traces *obs.Counter
}

func newFrontMetrics(f *Front) *frontMetrics {
	reg := obs.NewRegistry()
	m := &frontMetrics{
		reg: reg,
		routes: reg.HistogramVec("shapesol_http_request_duration_seconds",
			"HTTP request latency by mux route pattern.", nil, "route"),
		traces: reg.Counter("shapesol_trace_events_total",
			"Job lifecycle trace events recorded."),
	}
	reg.CounterFunc("shapesol_cache_hits_total",
		"Result-cache hits (submissions answered without simulation).",
		func() float64 { h, _ := f.cache.Stats(); return float64(h) })
	reg.CounterFunc("shapesol_cache_misses_total",
		"Result-cache misses.",
		func() float64 { _, mi := f.cache.Stats(); return float64(mi) })
	reg.GaugeFunc("shapesol_cache_entries",
		"Entries in the LRU result cache.",
		func() float64 { return float64(f.cache.Len()) })
	reg.GaugeFunc("shapesol_draining",
		"1 while the process is shutting down and rejecting submissions.",
		func() float64 {
			if f.draining.Load() {
				return 1
			}
			return 0
		})

	jobsByState := reg.GaugeVec("shapesol_jobs",
		"Retained job records by lifecycle state.", "state")
	reg.OnCollect(func() {
		counts := map[State]int{
			StateQueued: 0, StateRunning: 0, StateDone: 0,
			StateFailed: 0, StateCanceled: 0,
		}
		for _, e := range f.store.all() {
			counts[e.Status().State]++
		}
		for state, n := range counts {
			jobsByState.With(string(state)).Set(float64(n))
		}
	})
	return m
}

// instrument wraps a route handler with the per-route latency
// histogram. The child is resolved once per route at registration.
func (m *frontMetrics) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	hist := m.routes.With(pattern)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		hist.Observe(time.Since(t0).Seconds())
	}
}

// handleMetrics serves the Prometheus text exposition.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	f.metrics.reg.Handler().ServeHTTP(w, r)
}

// registerMetrics adds the local executor's series: the engine counter
// sets, pre-resolved per engine label, the pool gauges and the journal
// fsync and checkpoint write timings.
func (s *Server) registerMetrics() {
	reg := s.Registry()
	s.engines = map[job.Engine]*obs.EngineMetrics{
		job.EngineSim:   obs.NewEngineMetrics(reg, string(job.EngineSim)),
		job.EnginePop:   obs.NewEngineMetrics(reg, string(job.EnginePop)),
		job.EngineUrn:   obs.NewEngineMetrics(reg, string(job.EngineUrn)),
		job.EngineCheck: obs.NewEngineMetrics(reg, string(job.EngineCheck)),
	}
	s.fsync = reg.Histogram("shapesol_journal_fsync_duration_seconds",
		"Journal append fsync latency.", nil)
	s.checkpoint = reg.Histogram("shapesol_checkpoint_write_duration_seconds",
		"Time to capture, encode, and atomically write one job checkpoint.", nil)
	reg.GaugeFunc("shapesol_queue_depth",
		"Accepted-but-not-started jobs waiting in the pool queue.",
		func() float64 { return float64(s.pool.QueueDepth()) })
	reg.GaugeFunc("shapesol_queue_capacity",
		"Pool queue capacity (the 503 backpressure bound).",
		func() float64 { return float64(s.pool.QueueCap()) })
	reg.GaugeFunc("shapesol_pool_workers",
		"Worker goroutines in the execution pool.",
		func() float64 { return float64(s.pool.Workers()) })
	reg.GaugeFunc("shapesol_pool_busy",
		"Workers currently executing a job (saturation = busy/workers).",
		func() float64 { return float64(s.pool.Busy()) })
}
