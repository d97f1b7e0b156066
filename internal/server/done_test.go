package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestDoneHintHonouredOnlyFromTheCluster posts the same job with every
// combination of cluster key and X-Done-Hint a client could send. Only a
// cluster-authenticated submission naming an http(s) address makes the
// worker call out — once, to <hint>/cluster/done, with the key, the echoed
// worker name and its own job id; everything else is an ordinary job that
// tells nobody.
func TestDoneHintHonouredOnlyFromTheCluster(t *testing.T) {
	const clusterKey = "done-test-key"
	type call struct {
		key  string
		hint DoneHint
	}
	calls := make(chan call, 8)
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var c call
		if r.Method != http.MethodPost || r.URL.Path != "/cluster/done" {
			t.Errorf("notifier sent %s %s", r.Method, r.URL.Path)
		}
		c.key = r.Header.Get("X-Cluster-Key")
		if err := json.NewDecoder(r.Body).Decode(&c.hint); err != nil {
			t.Errorf("decoding done hint: %v", err)
		}
		calls <- c
		w.WriteHeader(http.StatusNoContent)
	}))
	defer sink.Close()

	srv := newTestServer(t, Config{Pool: 2, ClusterKey: clusterKey})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	solo := newTestServer(t, Config{Pool: 2}) // clustering off: no key can match
	tsSolo := httptest.NewServer(solo.Handler())
	defer tsSolo.Close()

	raw, _ := json.Marshal(JobSpec{Algorithm: "cholesky", NT: 3, NB: 8})
	// The honoured case comes last: the notifier delivers in order, so a
	// hint wrongly sent for an earlier job would arrive first and fail the
	// job-id comparison.
	for _, tc := range []struct {
		name      string
		srv       *Server
		base      string
		key, hint string
		honoured  bool
	}{
		{"no key", srv, ts.URL, "", sink.URL, false},
		{"wrong key", srv, ts.URL, "not-the-key", sink.URL, false},
		{"clustering off", solo, tsSolo.URL, clusterKey, sink.URL, false},
		{"not http(s)", srv, ts.URL, clusterKey, "gopher://" + sink.Listener.Addr().String(), false},
		{"cluster submission", srv, ts.URL, clusterKey, sink.URL + "/", true},
	} {
		req, err := http.NewRequest(http.MethodPost, tc.base+"/jobs", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Done-Hint", tc.hint)
		req.Header.Set("X-Done-Worker", "w7")
		if tc.key != "" {
			req.Header.Set("X-Cluster-Key", tc.key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", tc.name, resp.StatusCode)
		}
		pollDone(t, tc.base, view.ID, 30*time.Second)
		if !tc.honoured {
			if job, _ := tc.srv.Job(view.ID); job.hints.doneURL != "" {
				t.Errorf("%s: job kept done hint %q", tc.name, job.hints.doneURL)
			}
			continue
		}
		select {
		case c := <-calls:
			if c.key != clusterKey || c.hint != (DoneHint{Worker: "w7", JobID: view.ID}) {
				t.Errorf("%s: hint %+v, want the cluster key, worker w7 and job %s", tc.name, c, view.ID)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s: no done hint arrived", tc.name)
		}
	}
}
