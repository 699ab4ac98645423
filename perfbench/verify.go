package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"shapesol/internal/job"
)

// verdict is the outcome of checking one Result against its protocol's
// claim.
type verdict int

const (
	pass verdict = iota
	// knownDefect is a miss the parent commit already shows, recorded in
	// README.md: it lowers verified_share but does not fail the run.
	knownDefect
	fail
)

// resultView is the part of a Result envelope the predicates read. The
// payload fields of every checked protocol share one struct because
// their JSON names do not clash.
type resultView struct {
	Protocol string     `json:"protocol"`
	Engine   job.Engine `json:"engine"`
	Halted   bool       `json:"halted"`
	Payload  struct {
		N            int   `json:"n"`
		B            int   `json:"b"`
		D            int   `json:"d"`
		R0           int64 `json:"r0"`
		Success      bool  `json:"success"`
		Halted       bool  `json:"halted"`
		Square       bool  `json:"square"`
		Spanned      int   `json:"spanned"`
		Match        bool  `json:"match"`
		Decided      bool  `json:"decided"`
		Correct      bool  `json:"correct"`
		Done         bool  `json:"done"`
		Copies       int   `json:"copies"`
		Exact        bool  `json:"exact"`
		Complete     bool  `json:"complete"`
		Configs      int64 `json:"configs"`
		Halts        bool  `json:"halts"`
		DepthBounded bool  `json:"depth_bounded"`
		MaxDepth     int64 `json:"max_depth"`
	} `json:"payload"`
}

// verify checks the Result bytes raw of the normalized job j against the
// paper's claim for its protocol. It recomputes each claim from the
// payload's numbers where it can (r0 >= n/2, spanned == d*d) instead of
// trusting the payload's own flags alone.
func verify(j job.Job, raw []byte) (verdict, error) {
	var r resultView
	if err := json.Unmarshal(raw, &r); err != nil {
		return fail, fmt.Errorf("decode result: %w", err)
	}
	if r.Protocol != j.Protocol || r.Engine != j.Engine {
		return fail, fmt.Errorf("result is %s/%s, job is %s/%s", r.Protocol, r.Engine, j.Protocol, j.Engine)
	}
	p, n, b, d := r.Payload, j.Params.N, j.Params.B, j.Params.D
	claim := func(ok bool, format string, args ...any) (verdict, error) {
		if ok {
			return pass, nil
		}
		return fail, fmt.Errorf("%s/%s seed %d: %s", j.Protocol, j.Engine, j.Seed, fmt.Sprintf(format, args...))
	}
	switch j.Protocol {
	case "counting-upper-bound":
		if j.Engine == job.EngineCheck {
			want := int64(2*n - 1 - b)
			return claim(p.N == n && p.Complete && p.Halts && p.DepthBounded && p.MaxDepth == want && p.Configs > 0,
				"complete=%v halts=%v depth_bounded=%v max_depth=%d (want %d)",
				p.Complete, p.Halts, p.DepthBounded, p.MaxDepth, want)
		}
		return claim(r.Halted && p.N == n && p.Success && 2*p.R0 >= int64(n),
			"halted=%v success=%v r0=%d n=%d", r.Halted, p.Success, p.R0, n)
	case "count-line":
		return claim(r.Halted && p.Halted && p.Success && 2*p.R0 >= int64(n),
			"halted=%v success=%v r0=%d n=%d", p.Halted, p.Success, p.R0, n)
	case "square-knowing-n":
		if p.Halted && p.D == d && p.Square && p.Spanned == d*d {
			return pass, nil
		}
		if d >= 6 && p.Halted && !p.Square {
			return knownDefect, fmt.Errorf("square-knowing-n d=%d seed %d halted on a %d-node non-square", d, j.Seed, p.Spanned)
		}
		return claim(false, "halted=%v square=%v spanned=%d", p.Halted, p.Square, p.Spanned)
	case "universal":
		return claim(p.Halted && p.D == d && p.Match, "halted=%v match=%v", p.Halted, p.Match)
	case "parallel-3d":
		return claim(p.D == d && p.Decided && p.Correct, "decided=%v correct=%v", p.Decided, p.Correct)
	case "replication":
		if p.Exact && p.Copies == 2 {
			return pass, nil
		}
		if p.Done && p.Copies == 1 {
			return knownDefect, fmt.Errorf("replication seed %d finished with 1 copy", j.Seed)
		}
		return claim(false, "done=%v copies=%d exact=%v", p.Done, p.Copies, p.Exact)
	}
	return fail, fmt.Errorf("no predicate for protocol %q", j.Protocol)
}

// canonical is the comparison form of a Result's JSON: object keys
// sorted, no whitespace, and the one non-deterministic field, wall_ns,
// zeroed. Numbers keep their exact digits. Sorting keys makes a
// standalone daemon's answer comparable with a coordinator's, whose
// events relay re-encodes the payload with its keys in sorted order.
func canonical(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("result is not a JSON object: %.40s", raw)
	}
	m["wall_ns"] = json.Number("0")
	return json.Marshal(m)
}

// encodeResult renders an in-process Result in canonical form.
func encodeResult(r job.Result) ([]byte, error) {
	r.WallTime = 0
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	return canonical(b)
}
