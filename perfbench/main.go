// Command perfbench is the repository's benchmark. It runs one of four
// workloads from a seed, verifies every result it times, and prints the
// metrics as one JSON object on its last line of output: the end-to-end
// metrics of an untraced run (-trace 0), or the per-layer metrics of a
// traced one (-trace 1). See README.md.
//
//	bash perfbench/run.sh -workload construct|count|serve|cluster|all -seed N -seconds S -trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Workloads, in the order -workload all runs them.
var workloads = []string{"construct", "count", "serve", "cluster"}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // scratch directory for data dirs, logs and traces
	daemon   string // the shapesold binary
}

func (c config) cluster() bool { return c.workload == "cluster" }

// outcome is what a workload measured.
type outcome struct {
	tailQ     float64 // the tail percentile reported as tail_ms
	balanced  bool    // p50_ms weighs every class alike (batch workloads)
	attempted int64
	verified  int64
	failed    int64
	failures  []string // the first few, for the log
	defects   map[string]int
	lat       []float64 // per-operation latency, ms
	byClass   map[string][]float64
	opsPerS   float64
	setup     []float64 // seconds, one per set-up repetition
	rssMB     float64
	layers    map[string]float64 // traced runs only
}

func newOutcome(tailQ float64) *outcome {
	return &outcome{tailQ: tailQ, defects: map[string]int{}, byClass: map[string][]float64{}}
}

// latency records one finished operation's time under its class.
func (o *outcome) latency(class string, ms float64) {
	o.lat = append(o.lat, ms)
	o.byClass[class] = append(o.byClass[class], ms)
}

// p50 is the typical operation latency. On serving workloads it is the
// p50 of all operations; the mix puts it inside one class. A batch deck
// has no such class: its pooled p50 sits between two classes and moves
// with the deck, and the slowest class has too few trials for a median of
// its own. There it is the geometric mean over classes of each class's
// geometric-mean latency, so every class weighs alike.
func (o *outcome) p50() (float64, error) {
	if !o.balanced {
		return percentile(o.lat, 0.5)
	}
	if len(o.byClass) == 0 {
		return 0, fmt.Errorf("p50: no operations")
	}
	var logs float64
	for _, ms := range o.byClass {
		logs += math.Log(geoMean(ms))
	}
	return math.Exp(logs / float64(len(o.byClass))), nil
}

// record counts one attempted operation by its verdict.
func (o *outcome) record(v verdict, err error) {
	o.attempted++
	switch v {
	case pass:
		o.verified++
	case knownDefect:
		protocol, _, _ := strings.Cut(err.Error(), " ")
		o.defects[protocol]++
	default:
		o.failed++
		if len(o.failures) < 5 {
			o.failures = append(o.failures, err.Error())
		}
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerUnits names every per-layer metric of a traced run with its unit.
// A workload that does not exercise a layer reports it as 0.
var layerUnits = map[string]string{
	"job.normalize_us":             "us",
	"job.result_bytes":             "count",
	"job.alloc_mb_per_trial":       "MiB",
	"runner.busy_share":            "share",
	"sim.steps_per_s":              "1/s",
	"sim.effective_share":          "share",
	"pop.steps_per_s":              "1/s",
	"urn.effective_per_s":          "1/s",
	"urn.alias_rebuilds_per_trial": "count",
	"check.configs_per_s":          "1/s",
	"snap.capture_ms":              "ms",
	"snap.bytes":                   "count",
	"snap.restore_ms":              "ms",
	"server.submit_ms":             "ms",
	"server.queue_wait_ms":         "ms",
	"server.run_ms":                "ms",
	"server.stream_ms":             "ms",
	"server.cache_hit_share":       "share",
	"server.fsync_ms_per_job":      "ms",
	"server.replay_s":              "s",
	"server.unattributed_share":    "share",
	"cluster.submit_ms":            "ms",
	"cluster.stream_ms":            "ms",
	"cluster.cache_hit_share":      "share",
	"cluster.mirror_pulls_per_s":   "1/s",
	"obs.scrape_ms":                "ms",
	"host.steal_share":             "share",
	"host.ref_loop_ms":             "ms",
	"traced.ops_per_s":             "1/s",
	"traced.p50_ms":                "ms",
}

// endToEnd turns an untraced outcome into the end-to-end metrics.
func (o *outcome) endToEnd() (map[string]metric, error) {
	p50, err := o.p50()
	if err != nil {
		return nil, err
	}
	tail, err := percentile(o.lat, o.tailQ)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"ops_per_s":      {o.opsPerS, "1/s"},
		"p50_ms":         {p50, "ms"},
		"tail_ms":        {tail, "ms"},
		"verified_share": {float64(o.verified) / float64(o.attempted), "share"},
		"peak_rss_mb":    {o.rssMB, "MiB"},
		"setup_s":        {median(o.setup), "s"},
	}, nil
}

// perLayer turns a traced outcome into the per-layer metrics. The traced
// end-to-end figures ride along as traced.*; their difference from an
// untraced run of the same seed is the tracing overhead.
func (o *outcome) perLayer(h *hostInfo) (map[string]metric, error) {
	p50, err := o.p50()
	if err != nil {
		return nil, err
	}
	o.layers["traced.ops_per_s"] = o.opsPerS
	o.layers["traced.p50_ms"] = p50
	o.layers["host.steal_share"] = h.StealShare
	o.layers["host.ref_loop_ms"] = median(h.RefLoopMS)
	m := map[string]metric{}
	for name, unit := range layerUnits {
		m[name] = metric{o.layers[name], unit}
	}
	for name := range o.layers {
		if _, ok := layerUnits[name]; !ok {
			return nil, fmt.Errorf("layer metric %q has no unit", name)
		}
	}
	return m, nil
}

func run(ctx context.Context, cfg config) (*outcome, *hostInfo, error) {
	h := newHostInfo()
	h.RefLoopMS = append(h.RefLoopMS, refLoop())
	s0, t0 := cpuTimes()
	tr := newTracer(cfg.trace)
	var o *outcome
	var err error
	switch cfg.workload {
	case "construct", "count":
		o, err = runBatch(ctx, cfg, decks[cfg.workload], tr)
	case "serve", "cluster":
		o, err = runServe(ctx, cfg, tr)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v or all)", cfg.workload, workloads)
	}
	if err != nil {
		return nil, nil, err
	}
	if s1, t1 := cpuTimes(); t1 > t0 {
		h.StealShare = (s1 - s0) / (t1 - t0)
	}
	h.RefLoopMS = append(h.RefLoopMS, refLoop())
	if path, err := tr.write(filepath.Join(cfg.out, "traces"), fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)); err != nil {
		return nil, nil, err
	} else if path != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s spans written to %s\n", cfg.workload, path)
	}
	return o, h, nil
}

// result prints one workload's diagnostics line and returns its report.
func result(cfg config, o *outcome, h *hostInfo) (report, error) {
	var m map[string]metric
	var err error
	if cfg.trace {
		m, err = o.perLayer(h)
	} else {
		m, err = o.endToEnd()
	}
	if err != nil {
		return report{}, err
	}
	classes := map[string]any{}
	for c, ms := range o.byClass {
		classes[c] = map[string]float64{"count": float64(len(ms)), "median_ms": median(ms)}
	}
	diag, err := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace, "host": h,
		"operations": len(o.lat), "classes": classes, "known_defects": o.defects,
		"failures": o.failures, "setup_s": o.setup,
	})
	if err != nil {
		return report{}, err
	}
	fmt.Println(string(diag))
	return report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
}

func main() {
	var (
		cfg     config
		seconds int
		trace   int
		probe   bool
	)
	flag.StringVar(&cfg.workload, "workload", "all", "construct, count, serve, cluster or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input of the run derives from")
	flag.IntVar(&seconds, "seconds", 15, "how long each workload measures")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for data dirs, daemon logs and traces")
	flag.StringVar(&cfg.daemon, "daemon", ".bench_build/shapesold", "shapesold binary")
	flag.BoolVar(&probe, "probe-setup", false, "internal: the child process timed by batch set-up")
	flag.Parse()
	if probe {
		if err := probeSetup(cfg.workload, cfg.seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace != 0
	os.Exit(runAll(cfg))
}

// runAll runs the selected workloads, prints the result line and returns
// the exit code: non-zero on any error, refused request or failed
// verification. Daemons are stopped on every path, a signal included.
func runAll(cfg config) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer stopAll()
	go func() {
		<-ctx.Done()
		stopAll()
	}()
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloads
	}
	final := report{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		c := cfg
		c.workload = name
		o, h, err := run(ctx, c)
		if err == nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		var r report
		if err == nil {
			r, err = result(c, o, h)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		for _, f := range o.failures {
			fmt.Fprintf(os.Stderr, "perfbench: %s: verification failed: %s\n", name, f)
		}
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if len(names) == 1 {
				final.Metrics[k] = r.Metrics[k]
			} else {
				final.Metrics[name+"/"+k] = r.Metrics[k]
			}
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !final.Correct {
		return 1
	}
	return 0
}
