package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"supersim/internal/server"
)

var eventSweep = server.JobSpec{
	Kind: "sweep", Algorithm: "qr", Scheduler: "quark",
	NB: 8, MaxNT: 5, Reps: 4, Workers: 4, Seed: 77,
}

// TestFannedSweepFinishesOnEvents takes the tick away (one an hour, and a
// heartbeat timeout to match, since only a tracker pass reaps): a sweep
// fanned over two real workers still finishes at once, because the
// submission kicks the sends out and each worker's done hint kicks the
// fetch of its part — and the merged result is the single-node one.
func TestFannedSweepFinishesOnEvents(t *testing.T) {
	ref := runSingleNode(t, eventSweep)
	w1, w2 := newTestWorker(t, ""), newTestWorker(t, "")
	_, hs := startTestCoordinator(t, Config{
		Key: testKey, HeartbeatTimeout: time.Hour, PollInterval: time.Hour,
	}, nil, w1, w2)

	start := time.Now()
	view := submitDispatch(t, hs.URL, eventSweep)
	if len(view.Parts) != 2 {
		t.Fatalf("sweep sliced into %d parts, want 2", len(view.Parts))
	}
	final := waitDispatch(t, hs.URL, view.ID, 30*time.Second)
	if took := time.Since(start); took > time.Second {
		t.Errorf("fanned sweep took %v with no tick to wait for", took)
	}
	if final.Result == nil || final.Result.Fingerprint != ref.Fingerprint {
		t.Fatalf("fanned result %+v, want fingerprint %s", final.Result, ref.Fingerprint)
	}
	m := clusterMetrics(t, hs.URL)
	if m.DoneHints < 2 || m.TickCompletions != 0 || m.Mismatches != 0 {
		t.Errorf("done_hints=%d tick_completions=%d mismatches=%d, want both parts hinted and none found by a tick",
			m.DoneHints, m.TickCompletions, m.Mismatches)
	}
}

// TestFannedSweepFinishesOnTheTickWithoutHints loses every hint, first by
// registering the workers without an address to send them to, then by
// refusing them at the coordinator's door: the same sweep finishes on a
// 50 ms tick with the same fingerprint.
func TestFannedSweepFinishesOnTheTickWithoutHints(t *testing.T) {
	ref := runSingleNode(t, eventSweep)
	cfg := Config{Key: testKey, HeartbeatTimeout: time.Hour, PollInterval: 50 * time.Millisecond}
	refuseHints := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster/done" {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	for _, tc := range []struct {
		name     string
		wrap     func(http.Handler) http.Handler
		withHint bool
	}{
		{"registered without a coordinator URL", nil, false},
		{"hints refused with a 500", refuseHints, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w1, w2 := newTestWorker(t, ""), newTestWorker(t, "")
			c, hs := startTestCoordinator(t, cfg, tc.wrap)
			hint := ""
			if tc.withHint {
				hint = hs.URL
			}
			c.register("w1", w1.http.URL, hint)
			c.register("w2", w2.http.URL, hint)

			view := submitDispatch(t, hs.URL, eventSweep)
			if len(view.Parts) != 2 {
				t.Fatalf("sweep sliced into %d parts, want 2", len(view.Parts))
			}
			final := waitDispatch(t, hs.URL, view.ID, 30*time.Second)
			if final.Result == nil || final.Result.Fingerprint != ref.Fingerprint {
				t.Fatalf("result %+v, want fingerprint %s", final.Result, ref.Fingerprint)
			}
			m := clusterMetrics(t, hs.URL)
			// Both parts, unless the pass kicked by a registration was still
			// running when the submission kicked the next one: that pass
			// polls right behind the sends and can catch a part already done.
			if m.DoneHints != 0 || m.TickCompletions < 1 || m.TickCompletions > 2 || m.Mismatches != 0 {
				t.Errorf("done_hints=%d tick_completions=%d mismatches=%d, want no hint, the parts found by ticks, no mismatch",
					m.DoneHints, m.TickCompletions, m.Mismatches)
			}
		})
	}
}

// TestDoneEndpoint: POST /cluster/done needs the cluster key and a
// well-formed body, and accepting the same hint twice changes nothing but
// the counter.
func TestDoneEndpoint(t *testing.T) {
	_, hs := newTestCoordinator(t, "")
	post := func(key, body string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/cluster/done", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("X-Cluster-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	hint, _ := json.Marshal(server.DoneHint{Worker: "w1", JobID: "j-000001"})
	for _, tc := range []struct {
		name, key, body string
		status          int
	}{
		{"no key", "", string(hint), http.StatusUnauthorized},
		{"wrong key", "not-the-key", string(hint), http.StatusUnauthorized},
		{"not JSON", testKey, "done", http.StatusBadRequest},
		{"no job id", testKey, `{"worker":"w1"}`, http.StatusBadRequest},
		{"accepted", testKey, string(hint), http.StatusNoContent},
		{"accepted again", testKey, string(hint), http.StatusNoContent},
	} {
		if got := post(tc.key, tc.body); got != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.status)
		}
	}
	if m := clusterMetrics(t, hs.URL); m.DoneHints != 2 || m.Dispatches != 0 {
		t.Errorf("done_hints=%d dispatches=%d after two accepted hints for no dispatch, want 2 and 0", m.DoneHints, m.Dispatches)
	}
}

// TestShutdownCancelsWedgedWorkerRequest: a worker that accepts the
// connection and never answers holds the tracker inside a request; Shutdown
// must cancel it rather than sit out the client's 30 s timeout.
func TestShutdownCancelsWedgedWorkerRequest(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}))
	defer wedged.Close()
	defer close(release) // before Close, which waits for the handler

	c, err := New(Config{Key: testKey, HeartbeatTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c.register("w1", wedged.URL, "")
	if _, err := c.submit(server.JobSpec{Algorithm: "cholesky", NT: 3, NB: 8}, [2]string{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the part never reached the worker")
	}
	start := time.Now()
	c.Shutdown()
	if took := time.Since(start); took > time.Second {
		t.Errorf("Shutdown took %v with a worker request in flight", took)
	}
}
