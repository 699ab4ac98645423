package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"shapesol/internal/job"
	"shapesol/internal/server"
)

// startStandalone serves a plain daemon, the reference for the
// coordinator's answers.
func startStandalone(t *testing.T) string {
	t.Helper()
	svc, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return ts.URL
}

// getBody fetches one URL; safe off the test goroutine.
func getBody(method, url string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := (&http.Client{Timeout: time.Minute}).Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// eventFrames reads a job's NDJSON event stream to its end.
func eventFrames(base, id string) ([]json.RawMessage, error) {
	resp, err := (&http.Client{Timeout: time.Minute}).Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var frames []json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		frames = append(frames, append(json.RawMessage(nil), sc.Bytes()...))
	}
	return frames, sc.Err()
}

// resultField extracts the raw "result" member of a JSON object.
func resultField(t *testing.T, body []byte) []byte {
	t.Helper()
	var v struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &v); err != nil || v.Result == nil {
		t.Fatalf("no result field in %s (%v)", body, err)
	}
	return zeroWall(v.Result)
}

// TestRoleParity: the same job through a standalone daemon and through a
// coordinator with one worker answers byte-identical result fields in
// its Status, its events result frame and its /result envelope.
func TestRoleParity(t *testing.T) {
	ref := startStandalone(t)
	tc := startCluster(t, 1, server.Config{}, Config{})
	for _, j := range []job.Job{
		{Protocol: "counting-upper-bound", Engine: "urn", Seed: 5, Params: job.Params{N: 1000}},
		{Protocol: "square-knowing-n", Seed: 3, Params: job.Params{D: 3}},
	} {
		t.Run(j.Protocol, func(t *testing.T) {
			var views [2][3][]byte
			for i, base := range []string{ref, tc.ts.URL} {
				st := submitJob(t, base, j)
				frames, err := eventFrames(base, st.ID)
				if err != nil || len(frames) == 0 {
					t.Fatalf("events of %s at %s: %d frames (%v)", st.ID, base, len(frames), err)
				}
				_, status, err := getBody(http.MethodGet, base+"/v1/jobs/"+st.ID)
				if err != nil {
					t.Fatal(err)
				}
				views[i] = [3][]byte{
					resultField(t, status),
					resultField(t, frames[len(frames)-1]),
					zeroWall(rawResult(t, base, st.ID)),
				}
			}
			for k, route := range []string{"GET /v1/jobs/{id}", "events result frame", "GET /v1/jobs/{id}/result"} {
				if !bytes.Equal(views[0][k], views[1][k]) {
					t.Errorf("%s differs by role:\nstandalone:  %s\ncoordinator: %s", route, views[0][k], views[1][k])
				}
			}
		})
	}
}

// TestConcurrentJobDriving drives one job at once through status,
// events, cancel and trace from several goroutines, on both roles. On
// the coordinator the job's record is shared by the handlers, the event
// relay and the maintenance loop, so run it under -race.
func TestConcurrentJobDriving(t *testing.T) {
	roles := map[string]string{
		"standalone":  startStandalone(t),
		"coordinator": startCluster(t, 1, server.Config{}, Config{}).ts.URL,
	}
	for name, base := range roles {
		t.Run(name, func(t *testing.T) {
			st := submitJob(t, base, job.Job{Protocol: "counting-upper-bound", Engine: "urn", Seed: 3, Params: job.Params{N: 1000000}})
			url := base + "/v1/jobs/" + st.ID
			terminal := func() (server.State, bool) {
				code, body, err := getBody(http.MethodGet, url)
				var s server.Status
				if err != nil || code != http.StatusOK || json.Unmarshal(body, &s) != nil {
					t.Errorf("status of %s: HTTP %d %s (%v)", st.ID, code, body, err)
					return "", true
				}
				return s.State, s.State.Terminal()
			}
			var wg sync.WaitGroup
			run := func(n int, fn func() error) {
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := fn(); err != nil {
							t.Error(err)
						}
					}()
				}
			}
			var mu sync.Mutex
			var streamed []server.State
			run(3, func() error { // event watchers
				frames, err := eventFrames(base, st.ID)
				if err != nil {
					return err
				}
				var last server.Frame
				for i, raw := range frames {
					if err := json.Unmarshal(raw, &last); err != nil {
						return err
					}
					if (last.Type == "result") != (i == len(frames)-1) {
						return fmt.Errorf("frame %d of %d is %q: want exactly one result frame, last", i, len(frames), last.Type)
					}
				}
				mu.Lock()
				streamed = append(streamed, last.State)
				mu.Unlock()
				return nil
			})
			poll := func(path string) func() error {
				return func() error {
					for {
						if code, body, err := getBody(http.MethodGet, url+path); err != nil || code != http.StatusOK {
							return fmt.Errorf("GET %s%s: HTTP %d %s (%v)", url, path, code, body, err)
						}
						if _, done := terminal(); done {
							return nil
						}
					}
				}
			}
			run(3, poll(""))
			run(2, poll("/trace"))
			run(2, func() error { // cancelers, once the job runs
				for state, done := terminal(); state != server.StateRunning && !done; state, done = terminal() {
				}
				code, body, err := getBody(http.MethodDelete, url)
				if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
					return fmt.Errorf("DELETE %s: HTTP %d %s (%v)", url, code, body, err)
				}
				return nil
			})
			wg.Wait()

			final := jobStatus(t, base, st.ID)
			if final.State != server.StateCanceled {
				t.Fatalf("final state %s (error %q), want canceled", final.State, final.Error)
			}
			for _, s := range streamed {
				if s != final.State {
					t.Errorf("an event stream ended %s, the job %s", s, final.State)
				}
			}
			settled := 0
			for _, ev := range jobTrace(t, base, st.ID) {
				if ev == server.TraceSettled {
					settled++
				}
			}
			if settled != 1 {
				t.Errorf("trace records %d settlements, want 1", settled)
			}
		})
	}
}
