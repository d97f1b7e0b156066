package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"supersim/internal/rng"
)

// Agent is the worker-side cluster client: it registers a simd instance
// with the coordinator and keeps it live with jittered heartbeats. Run it
// in its own goroutine alongside the worker's HTTP server.
type Agent struct {
	// Coordinator is the coordinator's base URL; Key the shared cluster
	// secret; Name this worker's unique name; URL the base URL peers and
	// the coordinator reach this worker at.
	Coordinator string
	Key         string
	Name        string
	URL         string
	// Interval overrides the coordinator-advertised heartbeat cadence
	// (tests); 0 uses the advertised value.
	Interval time.Duration
	// Client is the HTTP client (default: 10s timeout).
	Client *http.Client

	jitter *rng.Source
}

// jitterDelay is the agent's anti-thundering-herd: each heartbeat waits
// base scaled by a uniform factor in [0.5, 1.5) drawn from the agent's
// own stream, so a fleet of workers started together (or reconnecting
// together after a coordinator restart) never settles into firing in the
// same instant — the same reasoning as the server's jittered Retry-After
// hints and retry backoff.
func (a *Agent) jitterDelay(base time.Duration) time.Duration {
	if a.jitter == nil {
		// Seeded from the worker's name: deterministic per worker (a
		// restart replays the same schedule — fine, it is still decorrelated
		// from every other worker), distinct across workers.
		a.jitter = rng.New(fnv64("agent:" + a.Name))
	}
	return time.Duration(float64(base) * (0.5 + a.jitter.Float64()))
}

// Run registers and heartbeats until ctx is cancelled. Registration
// failures retry on the heartbeat cadence; a 404 heartbeat (restarted
// coordinator) falls back to re-registration. Returns ctx.Err() on
// cancellation — the only way out.
func (a *Agent) Run(ctx context.Context) error {
	if a.Client == nil {
		a.Client = &http.Client{Timeout: 10 * time.Second}
	}
	base := a.Interval
	if base <= 0 {
		base = 2 * time.Second
	}
	registered := false
	for {
		if !registered {
			if adv, err := a.register(ctx); err == nil {
				registered = true
				if a.Interval <= 0 && adv > 0 {
					base = adv
				}
			}
		} else if err := a.beat(ctx); err != nil {
			var se statusErr
			if errors.As(err, &se) && se.code == http.StatusNotFound {
				registered = false // coordinator forgot us; re-register
			}
			// Other errors (coordinator briefly down) just retry on cadence.
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(a.jitterDelay(base)):
		}
	}
}

// statusErr carries a non-2xx response code.
type statusErr struct{ code int }

func (e statusErr) Error() string { return fmt.Sprintf("cluster: coordinator returned %d", e.code) }

func (a *Agent) post(ctx context.Context, path string, body any, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.Coordinator+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Cluster-Key", a.Key)
	resp, err := a.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return statusErr{code: resp.StatusCode}
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// register announces the worker — and the address it reaches the
// coordinator at, where its done hints will go — and returns the
// coordinator-advertised heartbeat interval.
func (a *Agent) register(ctx context.Context) (time.Duration, error) {
	var resp RegisterResponse
	if err := a.post(ctx, "/cluster/register", RegisterRequest{Name: a.Name, URL: a.URL, Coordinator: a.Coordinator}, &resp); err != nil {
		return 0, err
	}
	return time.Duration(resp.HeartbeatMS) * time.Millisecond, nil
}

func (a *Agent) beat(ctx context.Context) error {
	return a.post(ctx, "/cluster/heartbeat", HeartbeatRequest{Name: a.Name}, nil)
}
