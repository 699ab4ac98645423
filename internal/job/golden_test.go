package job

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"shapesol/internal/grid"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenJobs is one small, fast, deterministic configuration per
// registered protocol (the urn engine gets its own entry, since it is a
// separate execution path of the same spec). Together they pin the JSON
// form of the Result envelope across every payload type.
var goldenJobs = []struct {
	file string
	job  Job
}{
	{"counting-upper-bound.pop", Job{Protocol: "counting-upper-bound", Params: Params{N: 60, B: 4}, Seed: 1}},
	{"counting-upper-bound.urn", Job{Protocol: "counting-upper-bound", Engine: EngineUrn, Params: Params{N: 1000}, Seed: 1}},
	// The acceptance instance of the exhaustive engine: Theorem 1's
	// halting claim verified over every fair execution at n = 8.
	{"counting-upper-bound.check", Job{Protocol: "counting-upper-bound", Engine: EngineCheck, Params: Params{N: 8}, Seed: 1}},
	{"simple-uid", Job{Protocol: "simple-uid", Params: Params{N: 6}, Seed: 1}},
	{"uid", Job{Protocol: "uid", Params: Params{N: 30}, Seed: 1}},
	{"leaderless", Job{Protocol: "leaderless", Params: Params{N: 20}, Seed: 1, MaxSteps: 1000}},
	{"count-line", Job{Protocol: "count-line", Params: Params{N: 8}, Seed: 2}},
	{"square-knowing-n", Job{Protocol: "square-knowing-n", Params: Params{D: 3}, Seed: 3}},
	{"universal", Job{Protocol: "universal", Params: Params{D: 4}, Seed: 4}},
	{"parallel-3d", Job{Protocol: "parallel-3d", Params: Params{D: 3}, Seed: 1}},
	{"replication", Job{Protocol: "replication",
		Params: Params{Shape: grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1})}, Seed: 5}},
	{"stabilize", Job{Protocol: "stabilize", Params: Params{Table: "line", N: 8}, Seed: 1}},
}

// TestResultGolden runs every registered protocol once and compares the
// marshaled Result envelope against its golden file. WallTime is the one
// non-deterministic field and is zeroed first. Regenerate with
// `go test ./internal/job -run Golden -update`.
func TestResultGolden(t *testing.T) {
	covered := make(map[string]bool)
	for _, g := range goldenJobs {
		covered[g.job.Protocol] = true
		t.Run(g.file, func(t *testing.T) {
			res, err := Run(context.Background(), g.job)
			if err != nil {
				t.Fatal(err)
			}
			res.WallTime = 0
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", g.file+".golden.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("envelope drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
	for _, name := range Names() {
		if !covered[name] {
			t.Errorf("protocol %q has no golden job", name)
		}
	}
}

// TestResultRoundTrip checks that the envelope survives a JSON round
// trip: unmarshaling and re-marshaling preserves every field (the typed
// payload generically, as an object).
func TestResultRoundTrip(t *testing.T) {
	for _, g := range goldenJobs {
		t.Run(g.file, func(t *testing.T) {
			res, err := Run(context.Background(), g.job)
			if err != nil {
				t.Fatal(err)
			}
			first, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var decoded Result
			if err := json.Unmarshal(first, &decoded); err != nil {
				t.Fatal(err)
			}
			second, err := json.Marshal(decoded)
			if err != nil {
				t.Fatal(err)
			}
			var a, b any
			if err := json.Unmarshal(first, &a); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(second, &b); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("round trip drifted:\nfirst:  %s\nsecond: %s", first, second)
			}
		})
	}
}

// goldenEnvelopes reads every golden Result file.
func goldenEnvelopes(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.golden.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden envelopes (%v)", err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// TestResultDecodeKeepsBytes pins the payload rule: a Result decoded
// from JSON re-encodes to exactly the bytes it came from, in both the
// indented (golden, /result) and the compact (events frame) form.
func TestResultDecodeKeepsBytes(t *testing.T) {
	for name, indented := range goldenEnvelopes(t) {
		t.Run(name, func(t *testing.T) {
			var res Result
			if err := json.Unmarshal(indented, &res); err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if got = append(got, '\n'); !bytes.Equal(got, indented) {
				t.Fatalf("indented round trip drifted:\ngot:\n%s\nwant:\n%s", got, indented)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, indented); err != nil {
				t.Fatal(err)
			}
			var res2 Result
			if err := json.Unmarshal(compact.Bytes(), &res2); err != nil {
				t.Fatal(err)
			}
			if got, err := json.Marshal(res2); err != nil || !bytes.Equal(got, compact.Bytes()) {
				t.Fatalf("compact round trip drifted (%v):\ngot:  %s\nwant: %s", err, got, compact.Bytes())
			}
		})
	}
}

// TestResultDecodeRejectsDamage: Result JSON arrives from worker frames
// and journal lines, so every truncation and a set of garbled forms must
// decode to an error, never a panic or a silently partial envelope.
func TestResultDecodeRejectsDamage(t *testing.T) {
	for name, data := range goldenEnvelopes(t) {
		body := bytes.TrimSpace(data)
		for cut := 0; cut < len(body); cut++ {
			var res Result
			if err := json.Unmarshal(body[:cut], &res); err == nil {
				t.Fatalf("%s truncated to %d bytes decoded without error", name, cut)
			}
		}
	}
	for _, bad := range []string{
		`{"protocol": "x", "payload": {"n": 1`,
		`{"protocol": "x", "payload": }`,
		`{"protocol": 7}`,
		`{"steps": "many"}`,
		`{"wall_ns": 1.5}`,
		`{"halted": "yes"}`,
		`["protocol"]`,
		`{"protocol": "x"}}`,
		"{\"protocol\": \"\xff\", \"payload\": [}",
	} {
		var res Result
		if err := json.Unmarshal([]byte(bad), &res); err == nil {
			t.Errorf("garbled envelope %q decoded without error: %+v", bad, res)
		}
	}
}

// FuzzResultDecode checks that decoding arbitrary bytes never panics and
// that whatever decodes re-encodes and decodes again to the same bytes.
func FuzzResultDecode(f *testing.F) {
	for _, data := range goldenEnvelopes(f) {
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var res Result
		if json.Unmarshal(data, &res) != nil {
			return
		}
		first, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("decoded %q does not re-encode: %v", data, err)
		}
		var again Result
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("re-encoded %q does not decode: %v", first, err)
		}
		if second, _ := json.Marshal(again); !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", first, second)
		}
	})
}
