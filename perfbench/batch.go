package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"time"

	"shapesol/internal/job"
	"shapesol/internal/obs"
	"shapesol/internal/runner"
)

// trialOut is what one batch trial reports back to the round.
type trialOut struct {
	engine  job.Engine
	class   string  // protocol/engine
	ms      float64 // job.RunNormalized wall time
	verdict verdict
	err     error
	bytes   int
	em      *obs.EngineMetrics // traced runs only
}

// runBatch runs rounds of the deck through runner.Map with one worker
// per core until the run's time is up, and verifies every trial.
func runBatch(ctx context.Context, cfg config, deck []deckEntry, tr *tracer) (*outcome, error) {
	out := newOutcome(0.75)
	out.balanced = true
	setup, err := batchSetup(cfg)
	if err != nil {
		return nil, err
	}
	out.setup = setup

	workers := runtime.NumCPU()
	var (
		trials, wallS      float64
		busyNS, makespanNS float64
		allocBytes         float64
		engineWall         = map[job.Engine]float64{}
		engineTrials       = map[job.Engine]float64{}
		steps, effective   = map[job.Engine]float64{}, map[job.Engine]float64{}
		discovered, alias  float64
		resultBytes, rss   []float64
	)
	start := time.Now()
	// Rounds run until the time is up and the tail percentile has its
	// ten samples beyond it; a slow host runs longer rather than fail.
	for r := 0; ctx.Err() == nil && (r == 0 || time.Since(start) < cfg.seconds || !enough(out)); r++ {
		jobs := roundJobs(deck, cfg.seed, r)
		resetPeakRSS()
		a0 := heapAllocBytes()
		t0 := time.Now()
		outs := runner.Map(workers, runner.Seeds(0, len(jobs)), func(i int64) trialOut {
			return runTrial(ctx, jobs[i], int64(r)<<32|i, tr)
		})
		wall := time.Since(t0)
		allocBytes += heapAllocBytes() - a0
		peak, err := peakRSSMiB(os.Getpid())
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		trials += float64(len(jobs))
		wallS += wall.Seconds()
		makespanNS += float64(workers) * float64(wall.Nanoseconds())
		for _, o := range outs {
			out.record(o.verdict, o.err)
			out.latency(o.class, o.ms)
			busyNS += o.ms * 1e6
			resultBytes = append(resultBytes, float64(o.bytes))
			engineWall[o.engine] += o.ms / 1000
			engineTrials[o.engine]++
			if o.em != nil {
				steps[o.engine] += float64(o.em.Steps.Value())
				effective[o.engine] += float64(o.em.Effective.Value())
				discovered += float64(o.em.Discovered.Value())
				alias += float64(o.em.AliasRebuilds.Value())
			}
		}
	}
	out.opsPerS = trials / wallS
	out.rssMB = median(rss)
	if tr == nil {
		return out, nil
	}
	normalizeUS := tr.durations("job.normalize", time.Microsecond)
	out.layers = map[string]float64{
		"job.normalize_us":             median(normalizeUS),
		"job.result_bytes":             median(resultBytes),
		"job.alloc_mb_per_trial":       allocBytes / (1 << 20) / float64(len(out.lat)),
		"runner.busy_share":            busyNS / makespanNS,
		"sim.steps_per_s":              ratio(steps[job.EngineSim], engineWall[job.EngineSim]),
		"sim.effective_share":          ratio(effective[job.EngineSim], steps[job.EngineSim]),
		"pop.steps_per_s":              ratio(steps[job.EnginePop], engineWall[job.EnginePop]),
		"urn.effective_per_s":          ratio(effective[job.EngineUrn], engineWall[job.EngineUrn]),
		"urn.alias_rebuilds_per_trial": ratio(alias, engineTrials[job.EngineUrn]),
		"check.configs_per_s":          ratio(discovered, engineWall[job.EngineCheck]),
	}
	return out, nil
}

// runTrial normalizes, runs and verifies one trial. Traced runs also
// attach engine counters through the Job.Metrics hook and record a span
// per layer call.
func runTrial(ctx context.Context, j job.Job, req int64, tr *tracer) trialOut {
	t0 := time.Now()
	nj, spec, err := job.Normalize(j)
	if err == nil {
		_ = nj.CacheKey()
	}
	t1 := time.Now()
	root := tr.add("trial", req, -1, t0, t0)
	defer func() { tr.finish(root, time.Now()) }()
	tr.add("job.normalize", req, root, t0, t1)
	if err != nil {
		return trialOut{verdict: fail, err: err}
	}
	o := trialOut{engine: nj.Engine, class: nj.Protocol + "/" + string(nj.Engine)}
	if tr != nil {
		o.em = obs.NewEngineMetrics(obs.NewRegistry(), string(nj.Engine))
		nj.Metrics = o.em
	}
	t2 := time.Now()
	res, err := job.RunNormalized(ctx, nj, spec)
	t3 := time.Now()
	tr.add("job.run", req, root, t2, t3)
	o.ms = float64(t3.Sub(t2).Nanoseconds()) / 1e6
	if err != nil {
		o.verdict, o.err = fail, err
		return o
	}
	raw, err := encodeResult(res)
	t4 := time.Now()
	tr.add("job.encode", req, root, t3, t4)
	if err != nil {
		o.verdict, o.err = fail, err
		return o
	}
	o.bytes = len(raw)
	o.verdict, o.err = verify(nj, raw)
	tr.add("verify", req, root, t4, time.Now())
	return o
}

func enough(o *outcome) bool {
	_, err := percentile(o.lat, o.tailQ)
	return err == nil
}

func heapAllocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median.
const setupRepeats = 21

// batchSetup times the batch program from process start to the moment
// its first trial could start: the benchmark re-executes itself in
// -probe-setup mode, which initializes the program's packages,
// normalizes the first round's jobs and prints "ready".
func batchSetup(cfg config) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate benchmark binary: %w", err)
	}
	var out []float64
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(self, "-probe-setup", "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed))
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, fmt.Errorf("probe pipe: %w", err)
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start set-up probe: %w", err)
		}
		line, err := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0)
		werr := cmd.Wait()
		if err != nil || line != "ready\n" || werr != nil {
			return nil, fmt.Errorf("set-up probe: read %q (%v), exit %v", line, err, werr)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// probeSetup is the child side of batchSetup.
func probeSetup(workload string, seed int64) error {
	deck, ok := decks[workload]
	if !ok {
		return fmt.Errorf("no batch workload %q", workload)
	}
	for _, j := range roundJobs(deck, seed, 0) {
		nj, _, err := job.Normalize(j)
		if err != nil {
			return err
		}
		_ = nj.CacheKey()
	}
	_, err := fmt.Println("ready")
	return err
}

var decks = map[string][]deckEntry{"construct": constructDeck, "count": countDeck}
