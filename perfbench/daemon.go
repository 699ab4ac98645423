package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one shapesold process the benchmark started.
type daemon struct {
	name string
	url  string
	log  string // path of its stdout+stderr
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
}

// live lists every daemon not yet stopped, so any exit path can stop them.
var live struct {
	sync.Mutex
	ds map[*daemon]bool
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts shapesold with args on a fresh loopback port; its
// log goes to <logDir>/<name>.log.
func startDaemon(bin, logDir, name string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(logDir, name+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, url: "http://" + addr, log: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon carries nothing
		close(d.done)
	}()
	live.Lock()
	if live.ds == nil {
		live.ds = map[*daemon]bool{}
	}
	live.ds[d] = true
	live.Unlock()
	return d, nil
}

// stop drains the daemon with SIGTERM, kills it if it has not exited
// within ten seconds, and returns once it has been reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	live.Lock()
	delete(live.ds, d)
	live.Unlock()
}

// stopAll stops every daemon still running.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.ds))
	for d := range live.ds {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// waitReady polls path on d every half millisecond until ready accepts
// the 200 body, and returns how long that took from since.
func waitReady(d *daemon, path string, since time.Time, ready func([]byte) bool) (time.Duration, error) {
	c := &http.Client{Timeout: time.Second}
	deadline := since.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			// The log lives in the run's data dir, which is removed on exit.
			out, _ := os.ReadFile(d.log)
			return 0, fmt.Errorf("%s exited during start-up: %s", d.name, bytes.TrimSpace(out[max(0, len(out)-400):]))
		default:
		}
		if resp, err := c.Get(d.url + path); err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && ready(body) {
				return time.Since(since), nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return 0, fmt.Errorf("%s not ready after 60s", d.name)
}

func anyBody([]byte) bool { return true }

// aliveNodes reports whether a /v1/cluster/nodes body lists want live workers.
func aliveNodes(want int) func([]byte) bool {
	return func(body []byte) bool {
		var nodes []struct {
			Alive bool `json:"alive"`
		}
		if json.Unmarshal(body, &nodes) != nil {
			return false
		}
		n := 0
		for _, x := range nodes {
			if x.Alive {
				n++
			}
		}
		return n == want
	}
}

// wireStatus and wireFrame are the parts of the daemon's Status body and
// events frame the client reads. Result stays raw for byte comparison.
type wireStatus struct {
	ID      string          `json:"id"`
	State   string          `json:"state"`
	Cached  bool            `json:"cached"`
	Resumed bool            `json:"resumed"`
	Error   string          `json:"error"`
	Result  json.RawMessage `json:"result"`
}

type wireFrame struct {
	Type   string          `json:"type"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// client is one closed-loop client: one keep-alive connection, one
// request in flight.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to path and decodes the Status answer. A non-2xx
// answer is a refusal and comes back as an error.
func (c *client) post(path, contentType string, body []byte) (wireStatus, error) {
	var st wireStatus
	resp, err := c.hc.Post(c.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return st, fmt.Errorf("POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, fmt.Errorf("POST %s: read: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("POST %s refused: %d %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("POST %s: decode status: %w", path, err)
	}
	return st, nil
}

// await reads the job's NDJSON events stream up to its result frame.
// Completion is pushed by the daemon; nothing polls.
func (c *client) await(id string) (wireFrame, error) {
	var f wireFrame
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return f, fmt.Errorf("events %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return f, fmt.Errorf("events %s refused: %d", id, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			f = wireFrame{}
			if jerr := json.Unmarshal(line, &f); jerr != nil {
				return f, fmt.Errorf("events %s: decode frame: %w", id, jerr)
			}
			if f.Type == "result" {
				_, _ = io.Copy(io.Discard, br) // drain so the connection is reused
				return f, nil
			}
		}
		if err != nil {
			return f, fmt.Errorf("events %s ended without a result frame: %w", id, err)
		}
	}
}

// get fetches path and returns the body of a 200 answer.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: read: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d", path, resp.StatusCode)
	}
	return data, nil
}

// scrape reads a Prometheus text exposition into series -> value.
func (c *client) scrape() (map[string]float64, error) {
	data, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}
