package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"supersim/internal/trace"
)

// getTrace fetches a job's JSON trace: the decoded trace on 200, else the
// status and the error envelope's text.
func getTrace(t *testing.T, base, id string) (*trace.Trace, int, string) {
	t.Helper()
	resp := mustGet(t, base+"/jobs/"+id+"/trace")
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		var e apiError
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("GET trace of %s: status %d with a body that is no error envelope: %q", id, resp.StatusCode, body)
		}
		return nil, resp.StatusCode, e.Error
	}
	var tr trace.Trace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("GET trace of %s: %v", id, err)
	}
	return &tr, resp.StatusCode, ""
}

// wantServedTrace requires the endpoint to serve exactly the trace the job's
// result describes: same fingerprint, same makespan, one event per task.
func wantServedTrace(t *testing.T, base, when string, v JobView) {
	t.Helper()
	tr, status, msg := getTrace(t, base, v.ID)
	if tr == nil {
		t.Fatalf("%s: trace of %s: status %d: %s", when, v.ID, status, msg)
	}
	if got := fmt.Sprintf("%016x", tr.Fingerprint()); got != v.Result.Fingerprint {
		t.Errorf("%s: served trace of %s fingerprints to %s, its result to %s", when, v.ID, got, v.Result.Fingerprint)
	}
	if tr.Makespan() != v.Result.Makespan || len(tr.Events) != v.Result.NumTasks || tr.Label != v.ID {
		t.Errorf("%s: served trace of %s: label %q makespan %v events %d, result says %v and %d",
			when, v.ID, tr.Label, tr.Makespan(), len(tr.Events), v.Result.Makespan, v.Result.NumTasks)
	}
}

// TestCachedJobTraceIsRederivedAndVerified walks the trace endpoints' whole
// contract now that a cached job keeps a digest and no trace: the trace of a
// replayed job is recomputed on request from whichever cache level holds its
// frame — memory, disk behind a capacity-1 cache, disk after a restart — and
// is always the one the result's fingerprint describes; a lookup is not a
// job, so dispositions do not move; "trace": false and sweeps still 404 with
// the text that names them; a direct job serves the trace it retained, and
// loses it with the process; a frame swapped on disk under a finished job is
// a 5xx, never another graph's trace under this job's id.
func TestCachedJobTraceIsRederivedAndVerified(t *testing.T) {
	f := false
	dir := t.TempDir()
	cfg := Config{Pool: 1, DataDir: dir, CacheCapacity: 1}
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specA := JobSpec{Algorithm: "cholesky", NT: 6, NB: 8, Workers: 4, Seed: 11, Reps: 3,
		Model: &ModelSpec{Fixed: 1e-3, Classes: map[string]float64{"DGEMM": 2.5e-3}}}
	specB := JobSpec{Algorithm: "qr", NT: 4, NB: 8, Workers: 3, Seed: 5}

	a := runDiskJob(t, srv, specA)
	if a.Cache != cacheMiss || !a.HasTrace {
		t.Fatalf("first job: cache %q has_trace %v, want a miss that serves its trace", a.Cache, a.HasTrace)
	}
	if job, _ := srv.Job(a.ID); job.Trace() != nil {
		t.Fatal("a cached job retained a trace")
	}
	wantServedTrace(t, ts.URL, "arena in memory", a)
	resp := mustGet(t, ts.URL+"/jobs/"+a.ID+"/trace.svg")
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "image/svg+xml" {
		t.Errorf("trace.svg of a cached job: status %d content type %q", resp.StatusCode, ct)
	}
	resp.Body.Close()

	// B takes the partition's one slot: A's trace now needs A's frame from disk.
	b := runDiskJob(t, srv, specB)
	wantServedTrace(t, ts.URL, "arena evicted, frame on disk", a)
	wantServedTrace(t, ts.URL, "arena evicted in turn", b)
	if m := srv.Metrics().Cache; m.Misses != 2 || m.Hits+m.DiskHits+m.PeerHits+m.Bypass != 0 || m.Captures != 2 {
		t.Errorf("after two jobs and four trace requests: %+v, want two misses, two captures and nothing else", m)
	}

	quiet := specA
	quiet.Trace = &f
	q := runDiskJob(t, srv, quiet)
	if _, status, msg := getTrace(t, ts.URL, q.ID); q.HasTrace || status != http.StatusNotFound || !strings.Contains(msg, `submitted with "trace": false`) {
		t.Errorf(`"trace": false job: has_trace %v, status %d %q`, q.HasTrace, status, msg)
	}
	sw := runDiskJob(t, srv, JobSpec{Kind: "sweep", Algorithm: "cholesky", MaxNT: 3, NB: 8, Workers: 2})
	if _, status, msg := getTrace(t, ts.URL, sw.ID); sw.HasTrace || status != http.StatusNotFound || !strings.Contains(msg, "sweep job") {
		t.Errorf("sweep job: has_trace %v, status %d %q", sw.HasTrace, status, msg)
	}

	direct := specB
	direct.NoCache = true
	d := runDiskJob(t, srv, direct)
	dj, _ := srv.Job(d.ID)
	if tr, status, msg := getTrace(t, ts.URL, d.ID); !d.HasTrace || dj.Trace() == nil || tr == nil || tr.Fingerprint() != dj.Trace().Fingerprint() {
		t.Errorf("direct job: has_trace %v, retained %v, endpoint status %d %q — want the retained trace served", d.HasTrace, dj.Trace() != nil, status, msg)
	}

	// A new process on the same data dir: the finished jobs come back from
	// the journal with their fingerprints and no traces.
	ts.Close()
	shutdownServer(t, srv)
	srv2 := newTestServer(t, cfg)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	for _, v := range []JobView{a, b} {
		job, ok := srv2.Job(v.ID)
		if !ok || !job.view().Recovered || !job.view().HasTrace {
			t.Fatalf("job %s after the restart: found %v, view %+v — want a recovered job that serves its trace", v.ID, ok, job.view())
		}
		wantServedTrace(t, ts2.URL, "after a restart", v)
	}
	if m := srv2.Metrics().Cache; m.Captures != 0 || m.Hits+m.DiskHits+m.Misses != 0 {
		t.Errorf("trace requests after the restart captured or counted as jobs: %+v", m)
	}
	for id, text := range map[string]string{q.ID: `submitted with "trace": false`, sw.ID: "sweep job", d.ID: "did not survive the restart"} {
		job, _ := srv2.Job(id)
		if _, status, msg := getTrace(t, ts2.URL, id); job.view().HasTrace || status != http.StatusNotFound || !strings.Contains(msg, text) {
			t.Errorf("job %s after the restart: has_trace %v, status %d %q, want a 404 saying %q", id, job.view().HasTrace, status, msg, text)
		}
	}

	// Swap B's frame into A's file while B's arena holds the memory slot:
	// A's trace request loads a valid frame of the wrong graph.
	jobA, _ := srv2.Job(a.ID)
	jobB, _ := srv2.Job(b.ID)
	disk := jobA.tenant.cache.disk
	frameB, err := os.ReadFile(disk.path(jobB.Spec.cacheKey()))
	if err != nil {
		t.Fatal(err)
	}
	wantServedTrace(t, ts2.URL, "before the swap", b)
	if err := os.WriteFile(disk.path(jobA.Spec.cacheKey()), frameB, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"/trace", "/trace.svg"} {
		resp := mustGet(t, ts2.URL+"/jobs/"+a.ID+suffix)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), a.Result.Fingerprint) {
			t.Errorf("GET %s of a job whose frame was swapped: status %d %q, want a 500 naming the job's fingerprint", suffix, resp.StatusCode, body)
		}
		// The slot now holds the wrong graph under A's key; B's own request
		// puts B back so the second pass loads the swapped file again.
		wantServedTrace(t, ts2.URL, "after the swap", b)
	}
}
