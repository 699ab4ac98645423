package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"
)

// Agent is the worker-side half of the membership protocol: it
// registers the worker with the coordinator and then heartbeats on the
// cadence the coordinator dictated at registration. A heartbeat
// answered with 404 means the coordinator does not know this worker —
// it restarted, or it declared the worker dead during a silence — and
// the agent falls back to registering again, which is all the recovery
// either case needs.
type Agent struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Name identifies this worker across re-registrations.
	Name string
	// Advertise is the base URL the coordinator should reach this
	// worker's /v1 API at.
	Advertise string
	// Heartbeat overrides the coordinator-dictated cadence when > 0
	// (tests use this; production leaves it 0).
	Heartbeat time.Duration
	// Client makes the calls; nil means a 10s-timeout client.
	Client *http.Client
}

// Run registers and heartbeats until ctx is canceled. Registration
// failures (coordinator not up yet, network blips) retry forever —
// a worker keeps serving its standalone API regardless, so the only
// correct agent behavior is persistence.
func (a *Agent) Run(ctx context.Context) {
	client := a.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	for ctx.Err() == nil {
		every, err := a.register(ctx, client)
		if err != nil {
			slog.Warn("cluster: register failed, retrying", "coordinator", a.Coordinator, "node", a.Name, "err", err)
			if !sleepCtx(ctx, a.retryDelay()) {
				return
			}
			continue
		}
		slog.Info("cluster: registered", "coordinator", a.Coordinator, "node", a.Name, "heartbeat", every)
		for ctx.Err() == nil {
			if !sleepCtx(ctx, every) {
				return
			}
			code, err := a.beat(ctx, client)
			if err != nil {
				slog.Warn("cluster: heartbeat failed, retrying", "node", a.Name, "err", err)
				continue
			}
			if code == http.StatusNotFound {
				slog.Info("cluster: coordinator forgot us, re-registering", "node", a.Name)
				break
			}
		}
	}
}

// retryDelay is the pause between failed registration attempts.
func (a *Agent) retryDelay() time.Duration {
	if a.Heartbeat > 0 {
		return a.Heartbeat
	}
	return time.Second
}

// register announces the worker and returns the heartbeat cadence to
// honor (the coordinator's dictate, unless Heartbeat overrides it).
func (a *Agent) register(ctx context.Context, client *http.Client) (time.Duration, error) {
	body, err := json.Marshal(registerRequest{Name: a.Name, URL: a.Advertise})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.Coordinator+"/v1/cluster/register", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var rr registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return 0, fmt.Errorf("bad register response: %w", err)
	}
	every := time.Duration(rr.HeartbeatMS) * time.Millisecond
	if a.Heartbeat > 0 {
		every = a.Heartbeat
	}
	if every <= 0 {
		every = 2 * time.Second
	}
	return every, nil
}

// beat sends one heartbeat and returns the HTTP status code.
func (a *Agent) beat(ctx context.Context, client *http.Client) (int, error) {
	body, err := json.Marshal(heartbeatRequest{Name: a.Name})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.Coordinator+"/v1/cluster/heartbeat", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	resp.Body.Close()
	return resp.StatusCode, nil
}

// sleepCtx sleeps for d or until ctx cancels; it reports whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
