package main

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"shapesol/internal/job"
)

func TestMixIsAFunctionOfTheSeed(t *testing.T) {
	deal := func(seed int64, client int) []request {
		m := newMix(seed, client, 2)
		out := make([]request, 200)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	a, b := deal(7, 0), deal(7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed dealt two different request sequences")
	}
	if reflect.DeepEqual(a, deal(8, 0)) {
		t.Fatal("seeds 7 and 8 dealt the same request sequence")
	}
	if reflect.DeepEqual(a, deal(7, 1)) {
		t.Fatal("clients 0 and 1 of one seed dealt the same request sequence")
	}
	if !reflect.DeepEqual(roundJobs(countDeck, 7, 3), roundJobs(countDeck, 7, 3)) {
		t.Fatal("same seed gave two different batch rounds")
	}
	if reflect.DeepEqual(roundJobs(constructDeck, 7, 0), roundJobs(constructDeck, 8, 0)) {
		t.Fatal("seeds 7 and 8 gave the same batch round")
	}
}

func TestMixDealsExactClassShares(t *testing.T) {
	m := newMix(3, 0, 2)
	got := map[class]int{}
	for i := 0; i < 20*50; i++ {
		got[m.next().Class]++
	}
	for c, per := range serveDeck {
		if got[c] != per*50 {
			t.Errorf("class %v: %d of 1000 requests, want %d", c, got[c], per*50)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{39, 0.75, false}, {40, 0.75, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		v, err := percentile(xs(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%v", 100*tc.q, tc.n, err, tc.ok)
		}
		// The samples are 1..n, so the nearest-rank value is the rank.
		if want := math.Ceil(tc.q * float64(tc.n)); tc.ok && v != want {
			t.Errorf("p%g of 1..%d = %v, want %v", 100*tc.q, tc.n, v, want)
		}
	}
}

func TestBalancedP50WeighsClassesAlike(t *testing.T) {
	o := newOutcome(0.75)
	o.balanced = true
	// Nine fast trials and one slow one: the pooled median is fast, the
	// balanced figure sits between the classes whatever their counts.
	for i := 0; i < 9; i++ {
		o.latency("fast", 10)
	}
	o.latency("slow", 1000)
	v, err := o.p50()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-100) > 1e-9 {
		t.Errorf("balanced p50 = %v, want 100", v)
	}
	o.latency("fast", 10)
	if w, _ := o.p50(); math.Abs(w-v) > 1e-9 {
		t.Errorf("balanced p50 moved with the class count: %v -> %v", v, w)
	}
}

// genuine runs a small job in-process and returns its normalized job and
// canonical Result bytes.
func genuine(t *testing.T, j job.Job) (job.Job, []byte) {
	t.Helper()
	nj, _, err := job.Normalize(j)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return nj, raw
}

// tamper rewrites one payload field of a canonical Result.
func tamper(t *testing.T, raw []byte, field string, v any) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["payload"].(map[string]any)[field] = v
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPredicatesRejectTamperedResults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		job   job.Job
		field string
		value any
	}{
		{"urn r0 below n/2", job.Job{Protocol: "counting-upper-bound", Engine: job.EngineUrn, Seed: 1, Params: job.Params{N: 1000}}, "r0", 499},
		{"pop success flipped", job.Job{Protocol: "counting-upper-bound", Engine: job.EnginePop, Seed: 1, Params: job.Params{N: 200}}, "success", false},
		{"check depth off by one", job.Job{Protocol: "counting-upper-bound", Engine: job.EngineCheck, Params: job.Params{N: 20}}, "max_depth", 35},
		{"check incomplete", job.Job{Protocol: "counting-upper-bound", Engine: job.EngineCheck, Params: job.Params{N: 20}}, "complete", false},
		{"count-line r0 below n/2", job.Job{Protocol: "count-line", Seed: 1, Params: job.Params{N: 12}}, "r0", 5},
		{"square flipped", job.Job{Protocol: "square-knowing-n", Seed: 1, Params: job.Params{D: 3}}, "square", false},
		{"universal mismatch", job.Job{Protocol: "universal", Seed: 1, Params: job.Params{D: 4}}, "match", false},
		{"parallel-3d wrong pixel", job.Job{Protocol: "parallel-3d", Seed: 1, Params: job.Params{D: 3}}, "correct", false},
		{"replication three copies", job.Job{Protocol: "replication", Seed: 1000, Params: job.Params{Shape: lShape}}, "copies", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nj, raw := genuine(t, tc.job)
			if v, err := verify(nj, raw); v != pass {
				t.Fatalf("genuine result rejected: %v", err)
			}
			if v, _ := verify(nj, tamper(t, raw, tc.field, tc.value)); v != fail {
				t.Fatalf("tampered %s=%v: verdict %d, want fail", tc.field, tc.value, v)
			}
		})
	}
}

func TestKnownDefectsAreNamedNotPassed(t *testing.T) {
	nj, raw := genuine(t, job.Job{Protocol: "square-knowing-n", Seed: 1000, Params: job.Params{D: 6}})
	if v, err := verify(nj, tamper(t, raw, "square", false)); v != knownDefect {
		t.Fatalf("d=6 non-square: verdict %d (%v), want knownDefect", v, err)
	}
	nj, raw = genuine(t, job.Job{Protocol: "replication", Seed: 1000, Params: job.Params{Shape: lShape}})
	raw = tamper(t, tamper(t, raw, "copies", 1), "exact", false)
	if v, err := verify(nj, raw); v != knownDefect {
		t.Fatalf("one-copy replication: verdict %d (%v), want knownDefect", v, err)
	}
}

func TestCanonicalIgnoresKeyOrderSpacingAndWallTime(t *testing.T) {
	a := []byte(`{"protocol":"p","wall_ns":5,"payload":{"n":10,"b":5}}`)
	b := []byte("{\n  \"payload\": {\"b\": 5, \"n\": 10},\n  \"wall_ns\": 77,\n  \"protocol\": \"p\"\n}")
	ca, err := canonical(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := canonical(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Fatalf("%s != %s", ca, cb)
	}
	if cc, _ := canonical([]byte(`{"protocol":"p","wall_ns":5,"payload":{"n":11,"b":5}}`)); string(cc) == string(ca) {
		t.Fatal("different payloads compared equal")
	}
}
