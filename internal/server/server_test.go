package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"supersim/internal/fault"
	"supersim/internal/trace"
)

// The server package is registered wall-clock with simlint
// (analysis.WallClockPackages): these tests measure real service latency.

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func waitStatus(t *testing.T, job *Job, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if job.Status() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck at %q after %v, want %q", job.ID, job.Status(), timeout, want)
}

// finished reports whether a status is one a job never leaves in this
// process.
func finished(status string) bool {
	switch status {
	case StatusDone, StatusFailed, StatusDead, StatusRejected, StatusRequeued:
		return true
	}
	return false
}

func waitFinished(t *testing.T, job *Job, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := job.Status(); finished(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s still %q after %v", job.ID, job.Status(), timeout)
	return ""
}

// TestSubmitPollResultHTTP walks the whole HTTP surface: submit a small
// Cholesky job, poll it to completion, fetch the result, the JSON trace,
// the SVG trace, /metrics and /healthz.
func TestSubmitPollResultHTTP(t *testing.T) {
	srv := newTestServer(t, Config{Pool: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"algorithm": "cholesky", "nt": 4, "nb": 8, "workers": 4, "seed": 7}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.ID == "" || loc != "/jobs/"+view.ID {
		t.Fatalf("submit: id=%q location=%q", view.ID, loc)
	}

	view = pollDone(t, ts.URL, view.ID, 10*time.Second)
	if view.Result == nil || view.Result.Makespan <= 0 {
		t.Fatalf("done job has no usable result: %+v", view.Result)
	}
	// nt=4 Cholesky has 4+6+4+6=20 tasks.
	if view.Result.NumTasks != 20 {
		t.Fatalf("num_tasks=%d, want 20", view.Result.NumTasks)
	}
	if !view.HasTrace {
		t.Fatal("simulate job should retain its trace by default")
	}

	// The JSON trace round-trips through the wire format.
	resp = mustGet(t, ts.URL+"/jobs/"+view.ID+"/trace")
	var tr trace.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	resp.Body.Close()
	if len(tr.Events) != view.Result.NumTasks {
		t.Fatalf("trace has %d events, want %d", len(tr.Events), view.Result.NumTasks)
	}
	if m := tr.Makespan(); m != view.Result.Makespan {
		t.Fatalf("trace makespan %v != result makespan %v", m, view.Result.Makespan)
	}

	resp = mustGet(t, ts.URL+"/jobs/"+view.ID+"/trace.svg")
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("trace.svg content type %q", ct)
	}
	resp.Body.Close()

	resp = mustGet(t, ts.URL+"/metrics")
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Jobs.Done < 1 || m.Run.Count < 1 {
		t.Fatalf("metrics after one job: %+v", m.Jobs)
	}

	resp = mustGet(t, ts.URL+"/healthz")
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Jobs < 1 {
		t.Fatalf("healthz: %+v", h)
	}
}

// TestSubmitValidation checks the 400 surface: malformed JSON, unknown
// fields and bad specs are rejected without consuming queue slots.
func TestSubmitValidation(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{not json`,
		`{"algorithm": "cholesky", "nt": 4, "bogus_field": 1}`,
		`{"algorithm": "magma", "nt": 4}`,
		`{"algorithm": "cholesky"}`,                  // nt missing
		`{"kind": "sweep", "algorithm": "cholesky"}`, // max_nt missing
		// max_nt 4 is three points, so slice 3 mod 4 is empty; offset outside
		// the stride; a slice of something that is not a sweep.
		`{"kind": "sweep", "algorithm": "cholesky", "max_nt": 4, "point_stride": 4, "point_offset": 3}`,
		`{"kind": "sweep", "algorithm": "cholesky", "max_nt": 4, "point_stride": 2, "point_offset": 2}`,
		`{"algorithm": "cholesky", "nt": 4, "point_stride": 2}`,
		// A sweep only replays, and replay assumes an unbounded window.
		`{"kind": "sweep", "algorithm": "cholesky", "max_nt": 4, "window": 8}`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatalf("%s: decoding error body: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || apiErr.Error == "" || apiErr.Retryable {
			t.Fatalf("%s: status=%d err=%+v, want non-retryable 400", body, resp.StatusCode, apiErr)
		}
	}
	if m := srv.Metrics(); m.Jobs.Submitted != 0 {
		t.Fatalf("rejected specs were admitted: %+v", m.Jobs)
	}

	resp := mustGet(t, ts.URL+"/jobs/j-999999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestSubmitPolicyValidation: the policy string is part of the capture
// cache key and of the persisted frame's file name, so admission lets
// through only the values a runtime tells apart. "" stays "" (no rewrite to
// "eager"): keys and files of existing data dirs remain valid.
func TestSubmitPolicyValidation(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		scheduler, policy string
		want              string // substring of the 400's message; "" = admitted
	}{
		{"starpu", "", ""},
		{"starpu", "eager", ""},
		{"starpu", "prio", ""},
		{"starpu", "ws", ""},
		{"starpu", "dm", ""},
		{"quark", "", ""},
		{"ompss", "", ""},
		{"", "", ""},
		{"starpu", "heft", `unknown policy "heft" for scheduler "starpu"`},
		{"starpu", "a/b", `unknown policy "a/b" for scheduler "starpu"`},
		{"quark", "prio", `unknown policy "prio" for scheduler "quark"`},
		{"ompss", "anything", `unknown policy "anything" for scheduler "ompss"`},
		{"", "a_b", `unknown policy "a_b" for scheduler "quark"`},
	} {
		body, _ := json.Marshal(JobSpec{Algorithm: "cholesky", NT: 2, NB: 8, Scheduler: tc.scheduler, Policy: tc.policy})
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			apiError
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatalf("%s: decoding reply: %v", body, err)
		}
		resp.Body.Close()
		if tc.want == "" {
			if job, ok := srv.Job(reply.ID); resp.StatusCode != http.StatusAccepted || !ok || job.Spec.Policy != tc.policy {
				t.Errorf("%s: status=%d, want 202 and a job holding the policy as submitted", body, resp.StatusCode)
			}
			continue
		}
		if resp.StatusCode != http.StatusBadRequest || reply.Retryable || !strings.Contains(reply.Error, tc.want) {
			t.Errorf("%s: status=%d err=%+v, want non-retryable 400 containing %q", body, resp.StatusCode, reply.apiError, tc.want)
		}
	}
}

// TestFrameEndpoint requests GET /internal/frames directly, as a cluster
// peer would: every status it can answer, and that a 200's body is the
// cached entry's frame byte for byte.
func TestFrameEndpoint(t *testing.T) {
	const clusterKey = "frames-test-key"
	srv := newTestServer(t, Config{Pool: 2, ClusterKey: clusterKey})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	solo := newTestServer(t, Config{Pool: 2}) // clustering off
	tsSolo := httptest.NewServer(solo.Handler())
	defer tsSolo.Close()

	spec := JobSpec{Algorithm: "cholesky", NT: 3, NB: 8}
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
		t.Fatalf("job finished %q", st)
	}
	cached := job.Spec.cacheKey()
	want := srv.defaultTenant().cache.frame(cached)
	if len(want) == 0 {
		t.Fatal("finished job left no frame in the cache")
	}
	absent := cached
	absent.nt = 99
	with := func(q url.Values, name, value string) url.Values {
		q.Set(name, value)
		return q
	}
	without := func(q url.Values, name string) url.Values {
		q.Del(name)
		return q
	}

	for _, tc := range []struct {
		name   string
		base   string
		key    string
		query  url.Values
		status int
	}{
		{"cached frame", ts.URL, clusterKey, frameQuery("default", cached), http.StatusOK},
		{"absent frame", ts.URL, clusterKey, frameQuery("default", absent), http.StatusNotFound},
		{"unknown tenant", ts.URL, clusterKey, frameQuery("nobody", cached), http.StatusNotFound},
		{"clustering off", tsSolo.URL, clusterKey, frameQuery("default", cached), http.StatusNotFound},
		{"wrong key", ts.URL, "not-the-key", frameQuery("default", cached), http.StatusUnauthorized},
		{"no key", ts.URL, "", frameQuery("default", cached), http.StatusUnauthorized},
		{"malformed nt", ts.URL, clusterKey, with(frameQuery("default", cached), "nt", "abc"), http.StatusBadRequest},
		{"malformed window", ts.URL, clusterKey, with(frameQuery("default", cached), "window", "1.5"), http.StatusBadRequest},
		{"missing nb", ts.URL, clusterKey, without(frameQuery("default", cached), "nb"), http.StatusBadRequest},
	} {
		req, err := http.NewRequest(http.MethodGet, tc.base+"/internal/frames?"+tc.query.Encode(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.key != "" {
			req.Header.Set("X-Cluster-Key", tc.key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%.80q)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		if tc.status == http.StatusOK && !bytes.Equal(body, want) {
			t.Errorf("%s: served %d bytes that differ from the cached frame (%d bytes)", tc.name, len(body), len(want))
		}
	}
	if m := srv.Metrics(); m.Cache.FramesServed != 1 {
		t.Errorf("frames_served %d, want 1 (only the 200 counts)", m.Cache.FramesServed)
	}
}

// TestCacheHitServesFaster: an identical second job is answered through
// the capture cache — the hit counter increments and the served latency
// drops at least 3x. Both dispositions replay the same graph; a miss also
// captures it and, on a journaled server (simd -data-dir, as the serve
// workloads run it), writes its frame through to disk, which a hit skips.
// Memory-only, a miss is a capture plus the hit's replay, and the ratio
// sits too close to 3 to gate on.
func TestCacheHitServesFaster(t *testing.T) {
	srv := newTestServer(t, Config{Pool: 1, DataDir: t.TempDir()})
	spec := JobSpec{Algorithm: "cholesky", NT: 16, NB: 8, Workers: 8, Seed: 42}

	first, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitFinished(t, first, 30*time.Second); st != StatusDone {
		t.Fatalf("first job %s: %s", st, first.view().Error)
	}
	fv := first.view()
	if fv.Cache != "miss" {
		t.Fatalf("first job cache disposition %q, want miss", fv.Cache)
	}

	// Take the best of several hits so a noisy-host hiccup cannot mask the
	// speedup this test exists to pin.
	const hits = 15
	bestHit := int64(0)
	for i := 0; i < hits; i++ {
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
			t.Fatalf("hit job %s: %s", st, job.view().Error)
		}
		v := job.view()
		if v.Cache != "hit" {
			t.Fatalf("repeat job cache disposition %q, want hit", v.Cache)
		}
		if v.Result.Makespan != fv.Result.Makespan {
			t.Fatalf("hit makespan %v != miss makespan %v (same spec, same seed)", v.Result.Makespan, fv.Result.Makespan)
		}
		if bestHit == 0 || v.RunNS < bestHit {
			bestHit = v.RunNS
		}
	}

	m := srv.Metrics()
	if m.Cache.Misses != 1 || m.Cache.Captures != 1 {
		t.Fatalf("cache counters: %+v, want exactly one miss and one capture", m.Cache)
	}
	if m.Cache.Hits < hits {
		t.Fatalf("cache hits=%d, want the repeat jobs counted", m.Cache.Hits)
	}
	if bestHit*3 > fv.RunNS {
		t.Errorf("cache hit not >=3x faster: miss %v, best hit %v",
			time.Duration(fv.RunNS), time.Duration(bestHit))
	}
	t.Logf("miss %v, best hit %v", time.Duration(fv.RunNS), time.Duration(bestHit))
}

// TestSubmitRejectsExecutorField: no request selects a replay executor. A
// job or cron spec that still carries the retired "parallelism" field is
// a 400 naming it, from the submit decoders' DisallowUnknownFields, and
// is never queued.
func TestSubmitRejectsExecutorField(t *testing.T) {
	srv := newTestServer(t, Config{Pool: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := `{"algorithm": "cholesky", "nt": 4, "nb": 8, "parallelism": 1}`
	for path, body := range map[string]string{
		"/jobs":  spec,
		"/crons": `{"every_ms": 3600000, "spec": ` + spec + `}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply apiError
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatalf("POST %s: decoding reply: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(reply.Error, `"parallelism"`) {
			t.Errorf("POST %s: status=%d error=%q, want a 400 naming parallelism", path, resp.StatusCode, reply.Error)
		}
	}
	if n, c := len(srv.Jobs()), len(srv.Crons()); n != 0 || c != 0 {
		t.Fatalf("%d jobs and %d crons admitted, want none", n, c)
	}
}

// TestConcurrentIdenticalSingleCapture checks the singleflight guarantee
// end to end: identical jobs racing through a wide pool trigger exactly
// one capture.
func TestConcurrentIdenticalSingleCapture(t *testing.T) {
	srv := newTestServer(t, Config{Pool: 4})
	spec := JobSpec{Algorithm: "cholesky", NT: 12, NB: 8, Workers: 8, Seed: 9}

	jobs := make([]*Job, 4)
	for i := range jobs {
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	for _, job := range jobs {
		if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
			t.Fatalf("job %s %s: %s", job.ID, st, job.view().Error)
		}
	}

	m := srv.Metrics()
	if m.Cache.Captures != 1 {
		t.Fatalf("%d captures for 4 identical jobs, want exactly 1", m.Cache.Captures)
	}
	if m.Cache.Misses != 1 || m.Cache.Hits != 3 {
		t.Fatalf("cache counters: %+v, want 1 miss + 3 hits", m.Cache)
	}
	for i, job := range jobs {
		if ms := job.view().Result.Makespan; ms != jobs[0].view().Result.Makespan {
			t.Fatalf("job %d makespan %v diverges from job 0", i, ms)
		}
	}
}

// TestAdmissionControl fills the single-slot queue behind a deliberately
// slow occupant and checks that the next submission bounces with a
// retryable 429.
func TestAdmissionControl(t *testing.T) {
	srv := newTestServer(t, Config{Pool: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The occupant runs the direct path with every task stalled for 40ms of
	// wall time on one worker — deterministically slow in wall-clock terms
	// while its virtual timeline stays ordinary.
	occupant, err := srv.Submit(JobSpec{
		Algorithm: "cholesky", NT: 2, NB: 8, Workers: 1,
		Fault: &fault.Config{Default: fault.Rates{Stall: 1}, StallWall: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, occupant, StatusRunning, 5*time.Second)

	filler, err := srv.Submit(JobSpec{Algorithm: "cholesky", NT: 2, NB: 8, Workers: 1})
	if err != nil {
		t.Fatalf("filler should occupy the queue slot: %v", err)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		bytes.NewReader([]byte(`{"algorithm": "cholesky", "nt": 2, "nb": 8}`)))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-admission: status %d, want 429", resp.StatusCode)
	}
	if !apiErr.Retryable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 must be retryable with a Retry-After hint: %+v", apiErr)
	}

	if st := waitFinished(t, occupant, 30*time.Second); st != StatusDone {
		t.Fatalf("occupant %s: %s", st, occupant.view().Error)
	}
	if st := waitFinished(t, filler, 30*time.Second); st != StatusDone {
		t.Fatalf("filler %s: %s", st, filler.view().Error)
	}
	if m := srv.Metrics(); m.Jobs.Rejected != 1 {
		t.Fatalf("rejected=%d, want the bounced submission counted", m.Jobs.Rejected)
	}
}

// TestJobDeadlineAborts checks the per-job deadline: a job that cannot
// finish inside deadline_ms fails with a deadline error instead of
// occupying its pool slot forever. Its stalled task is still running after
// the job failed, so the run's scratch must be dropped, not handed to the
// next direct job: a 1-worker direct job run before and after it must
// fingerprint alike.
func TestJobDeadlineAborts(t *testing.T) {
	srv := newTestServer(t, Config{Pool: 1})
	f := false
	direct := JobSpec{Algorithm: "lu", NT: 3, NB: 8, Workers: 1, Seed: 3, NoCache: true, Trace: &f}
	before := runJobSpec(t, srv, direct)
	job, err := srv.Submit(JobSpec{
		Algorithm: "cholesky", NT: 4, NB: 8, Workers: 1,
		DeadlineMS: 30,
		Fault:      &fault.Config{Default: fault.Rates{Stall: 1}, StallWall: 150 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitFinished(t, job, 30*time.Second); st != StatusFailed {
		t.Fatalf("job %s, want failed at its 30ms deadline", st)
	}
	if msg := job.view().Error; !strings.Contains(msg, "deadline") && !strings.Contains(msg, "stall") {
		t.Fatalf("failure should name the deadline or the stall watchdog: %q", msg)
	}
	after := runJobSpec(t, srv, direct)
	if after.Status != StatusDone || after.Result.Fingerprint != before.Result.Fingerprint {
		t.Fatalf("the direct job after the aborted one ended %s with fingerprint %q, before it %q", after.Status, after.Result.Fingerprint, before.Result.Fingerprint)
	}
}

func pollDone(t *testing.T, base, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp := mustGet(t, base+"/jobs/"+id)
		var view JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch view.Status {
		case StatusDone:
			return view
		case StatusFailed, StatusRejected:
			t.Fatalf("job %s %s: %s", id, view.Status, view.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in %v", id, timeout)
	return JobView{}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}
