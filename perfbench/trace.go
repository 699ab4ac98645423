package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer of the
// program. Spans of one request share Req; Parent is the index of the
// enclosing span, or -1.
type span struct {
	Name    string `json:"name"`
	Req     int64  `json:"req"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run and writes them out once
// at the end. A nil *tracer records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// add records a finished span and returns its index for children.
func (t *tracer) add(name string, req int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// finish sets the end of span i, recorded open by add.
func (t *tracer) finish(i int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].EndNS = end.Sub(t.t0).Nanoseconds()
}

// named returns every span with the given name.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations, in the given unit, of every span
// with the given name.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.EndNS-s.StartNS)/float64(unit))
	}
	return out
}

// write saves the spans as one JSON document under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Start time.Time `json:"start"`
		Spans []span    `json:"spans"`
	}{t.t0, t.spans})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	return path, os.WriteFile(path, b, 0o644)
}
