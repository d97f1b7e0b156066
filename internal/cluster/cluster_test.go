package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"supersim/internal/server"
)

const testKey = "test-cluster-key"

// testWorker is one in-process simd instance behind an httptest listener.
type testWorker struct {
	srv  *server.Server
	http *httptest.Server
}

func newTestWorker(t *testing.T, dataDir string) *testWorker {
	t.Helper()
	srv, err := server.New(server.Config{Pool: 2, ClusterKey: testKey, DataDir: dataDir})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	w := &testWorker{srv: srv, http: hs}
	t.Cleanup(func() { w.stop() })
	return w
}

func (w *testWorker) stop() {
	if w.http != nil {
		w.http.Close()
		w.http = nil
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = w.srv.Shutdown(ctx)
		cancel()
		w.srv = nil
	}
}

// newTestCoordinator builds a coordinator with test-speed timing and
// registers the given workers under w1, w2, ... Names sort in index
// order, keeping placement deterministic.
func newTestCoordinator(t *testing.T, dataDir string, workers ...*testWorker) (*Coordinator, *httptest.Server) {
	t.Helper()
	return startTestCoordinator(t, Config{
		Key:               testKey,
		DataDir:           dataDir,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		PollInterval:      20 * time.Millisecond,
	}, nil, workers...)
}

// startTestCoordinator is newTestCoordinator with the config spelled out
// and, when wrap is set, the coordinator's handler behind it. Workers are
// registered the way an agent does it: with the coordinator's own URL as
// the address for their done hints.
func startTestCoordinator(t *testing.T, cfg Config, wrap func(http.Handler) http.Handler, workers ...*testWorker) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	h := c.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	hs := httptest.NewServer(h)
	t.Cleanup(func() { hs.Close(); c.Shutdown() })
	for i, w := range workers {
		c.register(fmt.Sprintf("w%d", i+1), w.http.URL, hs.URL)
	}
	return c, hs
}

// keepAlive heartbeats the named workers every 50ms until the returned
// stop function runs (or the test ends).
func keepAlive(t *testing.T, c *Coordinator, names ...string) (stop func(name string)) {
	t.Helper()
	var mu sync.Mutex
	alive := map[string]bool{}
	for _, n := range names {
		alive[n] = true
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-done:
		default:
			close(done)
		}
	})
	go func() {
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				mu.Lock()
				for _, n := range names {
					if alive[n] {
						c.heartbeat(n)
					}
				}
				mu.Unlock()
			}
		}
	}()
	return func(name string) {
		mu.Lock()
		alive[name] = false
		mu.Unlock()
	}
}

func submitDispatch(t *testing.T, baseURL string, spec server.JobSpec) DispatchView {
	t.Helper()
	raw, _ := json.Marshal(spec)
	resp, err := http.Post(baseURL+"/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var view DispatchView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %+v", resp.StatusCode, view)
	}
	return view
}

func getDispatch(t *testing.T, baseURL, id string) DispatchView {
	t.Helper()
	var view DispatchView
	getJSON(t, baseURL+"/jobs/"+id, &view)
	return view
}

func waitDispatch(t *testing.T, baseURL, id string, timeout time.Duration) DispatchView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		view := getDispatch(t, baseURL, id)
		switch view.Status {
		case StatusDone:
			return view
		case StatusFailed:
			t.Fatalf("dispatch %s failed: %s", id, view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("dispatch %s still %s after %v: %+v", id, view.Status, timeout, view)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func clusterMetrics(t *testing.T, baseURL string) MetricsSnapshot {
	t.Helper()
	var m MetricsSnapshot
	getJSON(t, baseURL+"/metrics", &m)
	return m
}

// TestClusterSweepFanoutBitIdentical is the tentpole invariant: a sweep
// fanned across 3 workers as point slices merges to the bit-identical
// curve and fingerprint of a single-node run.
func TestClusterSweepFanoutBitIdentical(t *testing.T) {
	spec := server.JobSpec{
		Kind: "sweep", Algorithm: "cholesky", Scheduler: "quark",
		NB: 8, MaxNT: 5, Reps: 6, Workers: 4, Seed: 42,
	}

	// Ground truth: the same spec on one standalone node.
	ref := runSingleNode(t, spec)
	if ref.Fingerprint == "" {
		t.Fatal("reference sweep produced no fingerprint")
	}

	w1, w2, w3 := newTestWorker(t, ""), newTestWorker(t, ""), newTestWorker(t, "")
	c, hs := newTestCoordinator(t, "", w1, w2, w3)
	keepAlive(t, c, "w1", "w2", "w3")

	view := submitDispatch(t, hs.URL, spec)
	if len(view.Parts) != 3 {
		t.Fatalf("sweep sliced into %d parts, want 3", len(view.Parts))
	}
	final := waitDispatch(t, hs.URL, view.ID, 60*time.Second)

	workersSeen := map[string]bool{}
	for _, p := range final.Parts {
		workersSeen[p.Worker] = true
	}
	if len(workersSeen) != 3 {
		t.Fatalf("parts ran on %d distinct workers, want 3: %+v", len(workersSeen), final.Parts)
	}
	if final.Result == nil {
		t.Fatal("no merged result")
	}
	if final.Result.Fingerprint != ref.Fingerprint {
		t.Fatalf("fanned-out fingerprint %s != single-node %s", final.Result.Fingerprint, ref.Fingerprint)
	}
	if len(final.Result.Sweep) != len(ref.Sweep) {
		t.Fatalf("curve length %d != %d", len(final.Result.Sweep), len(ref.Sweep))
	}
	for i := range ref.Sweep {
		for r, m := range ref.Sweep[i].Makespans {
			if final.Result.Sweep[i].Makespans[r] != m {
				t.Fatalf("nt=%d rep %d: merged %v != reference %v", ref.Sweep[i].NT, r, final.Result.Sweep[i].Makespans[r], m)
			}
		}
		if final.Result.Sweep[i].MinMakespan != ref.Sweep[i].MinMakespan ||
			final.Result.Sweep[i].MeanMakespan != ref.Sweep[i].MeanMakespan {
			t.Fatalf("nt=%d aggregates diverge", ref.Sweep[i].NT)
		}
	}
}

// runSingleNode runs spec to completion on a fresh standalone server.
func runSingleNode(t *testing.T, spec server.JobSpec) *server.JobResult {
	t.Helper()
	srv, err := server.New(server.Config{Pool: 2})
	if err != nil {
		t.Fatalf("reference server: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
	}()
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		switch job.Status() {
		case server.StatusDone:
			v, _ := srv.Job(job.ID)
			return v.View().Result
		case server.StatusFailed, server.StatusDead:
			t.Fatalf("reference job %s", job.Status())
		}
		if time.Now().After(deadline) {
			t.Fatalf("reference job still %s", job.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterCacheRouting pins consistent-hash routing: repeats of a
// cacheable spec land on the same worker and only the first captures.
func TestClusterCacheRouting(t *testing.T) {
	w1, w2 := newTestWorker(t, ""), newTestWorker(t, "")
	c, hs := newTestCoordinator(t, "", w1, w2)
	keepAlive(t, c, "w1", "w2")

	spec := server.JobSpec{Algorithm: "cholesky", NT: 4, NB: 8, Reps: 2, Seed: 7}
	first := waitDispatch(t, hs.URL, submitDispatch(t, hs.URL, spec).ID, 30*time.Second)
	second := waitDispatch(t, hs.URL, submitDispatch(t, hs.URL, spec).ID, 30*time.Second)

	if first.Parts[0].Worker != second.Parts[0].Worker {
		t.Fatalf("repeat routed to %s, first to %s", second.Parts[0].Worker, first.Parts[0].Worker)
	}
	if first.Result.Fingerprint != second.Result.Fingerprint {
		t.Fatalf("repeat fingerprint %s != %s", second.Result.Fingerprint, first.Result.Fingerprint)
	}
	m := clusterMetrics(t, hs.URL)
	if m.Cache.Captures != 1 {
		t.Fatalf("cluster-wide captures = %d after a repeat, want 1", m.Cache.Captures)
	}
	if m.Cache.Hits < 1 {
		t.Fatalf("cluster-wide hits = %d, want >= 1", m.Cache.Hits)
	}
}

// findNTOwnedBy searches for a tile count whose route key lands on the
// wanted owner under the given ring membership — mirroring the ring the
// coordinator builds for the same worker names.
func findNTOwnedBy(t *testing.T, members []string, want string, spec server.JobSpec) server.JobSpec {
	t.Helper()
	r := NewRing(0)
	for _, m := range members {
		r.Add(m)
	}
	for nt := 2; nt <= 40; nt++ {
		s := spec
		s.NT = nt
		if err := s.Validate(); err != nil {
			t.Fatalf("validate nt=%d: %v", nt, err)
		}
		if owner, _ := r.Owner(s.RouteKey()); owner == want {
			return s
		}
	}
	t.Fatalf("no nt in [2,40] owned by %s on ring %v", want, members)
	return spec
}

// TestCoordinatorRejectsUnknownPolicy: the coordinator validates before it
// derives a route key, so a policy string no runtime distinguishes is a
// 400 at the front door — it never becomes a ring position, a dispatch or
// a journal record.
func TestCoordinatorRejectsUnknownPolicy(t *testing.T) {
	c, hs := newTestCoordinator(t, "")
	for _, spec := range []server.JobSpec{
		{Algorithm: "cholesky", NT: 4, NB: 8, Scheduler: "quark", Policy: "prio"},
		{Algorithm: "cholesky", NT: 4, NB: 8, Scheduler: "starpu", Policy: "a/b"},
	} {
		raw, _ := json.Marshal(spec)
		resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatalf("%s: decoding reply: %v", raw, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(reply.Error, "policy") {
			t.Errorf("%s: status=%d error=%q, want a 400 naming the policy", raw, resp.StatusCode, reply.Error)
		}
	}
	c.mu.Lock()
	n := len(c.dispatches)
	c.mu.Unlock()
	if n != 0 {
		t.Errorf("%d dispatches admitted, want 0", n)
	}
}

// TestCoordinatorRejectsExecutorField: the coordinator's submit decoder
// disallows unknown fields, so a spec carrying the retired "parallelism"
// field is a 400 naming it, before any dispatch.
func TestCoordinatorRejectsExecutorField(t *testing.T) {
	c, hs := newTestCoordinator(t, "")
	resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(`{"algorithm": "cholesky", "nt": 4, "nb": 8, "parallelism": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.mu.Lock()
	n := len(c.dispatches)
	c.mu.Unlock()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(reply), "parallelism") || n != 0 {
		t.Errorf("status=%d reply=%s dispatches=%d, want a 400 naming parallelism and none", resp.StatusCode, reply, n)
	}
}

// TestCoordinatorRejectsSlicedSubmission: point slicing is how the
// coordinator talks to its workers, not something a client may ask it for.
func TestCoordinatorRejectsSlicedSubmission(t *testing.T) {
	c, _ := newTestCoordinator(t, "")
	_, err := c.submit(server.JobSpec{Kind: "sweep", Algorithm: "cholesky", MaxNT: 5, NB: 8, PointStride: 2}, [2]string{})
	if err == nil || !strings.Contains(err.Error(), "point_stride") {
		t.Fatalf("sliced submission: %v, want a refusal naming point_stride", err)
	}
}

// TestClusterPeerFrameFetch pins frame shipping: when a ring change moves
// a key to a worker that never captured it, the new owner fetches the
// .dag frame from the previous owner instead of re-capturing.
func TestClusterPeerFrameFetch(t *testing.T) {
	w1 := newTestWorker(t, "")
	c, hs := newTestCoordinator(t, "", w1)
	keepAlive(t, c, "w1", "w2")

	// A spec that w2 will own once it joins the ring.
	spec := findNTOwnedBy(t, []string{"w1", "w2"}, "w2",
		server.JobSpec{Algorithm: "cholesky", NB: 8, Reps: 1, Seed: 11})

	// Captured on w1 while it is the only worker.
	first := waitDispatch(t, hs.URL, submitDispatch(t, hs.URL, spec).ID, 30*time.Second)
	if got := first.Parts[0].Worker; got != "w1" {
		t.Fatalf("first run on %s, want w1", got)
	}

	// w2 joins; the key's owner moves; the repeat must be served from a
	// peer-fetched frame, not a new capture.
	w2 := newTestWorker(t, "")
	c.register("w2", w2.http.URL, hs.URL)

	second := waitDispatch(t, hs.URL, submitDispatch(t, hs.URL, spec).ID, 30*time.Second)
	if got := second.Parts[0].Worker; got != "w2" {
		t.Fatalf("repeat routed to %s, want w2 after ring change", got)
	}
	if second.Result.Fingerprint != first.Result.Fingerprint {
		t.Fatalf("peer-served fingerprint %s != original %s", second.Result.Fingerprint, first.Result.Fingerprint)
	}
	m := clusterMetrics(t, hs.URL)
	if m.Cache.Captures != 1 {
		t.Fatalf("cluster-wide captures = %d after frame fetch, want 1", m.Cache.Captures)
	}
	if m.Cache.PeerHits != 1 {
		t.Fatalf("peer hits = %d, want 1", m.Cache.PeerHits)
	}
	if m.Cache.FramesServed != 1 {
		t.Fatalf("frames served = %d, want 1", m.Cache.FramesServed)
	}
}

// TestClusterWorkerRestartServesDiskFrame pins the durable half of the
// routing story: a restarted worker serves a repeat of its routed key
// from the persisted .dag frame — zero captures in the new process.
func TestClusterWorkerRestartServesDiskFrame(t *testing.T) {
	dir := t.TempDir()
	w1 := newTestWorker(t, dir)
	c, hs := newTestCoordinator(t, "", w1)
	keepAlive(t, c, "w1")

	spec := server.JobSpec{Algorithm: "qr", NT: 4, NB: 8, Reps: 1, Seed: 3}
	first := waitDispatch(t, hs.URL, submitDispatch(t, hs.URL, spec).ID, 30*time.Second)

	// Restart: new process, same data dir, same worker name.
	w1.stop()
	w1b := newTestWorker(t, dir)
	c.register("w1", w1b.http.URL, hs.URL)

	second := waitDispatch(t, hs.URL, submitDispatch(t, hs.URL, spec).ID, 30*time.Second)
	if second.Result.Fingerprint != first.Result.Fingerprint {
		t.Fatalf("post-restart fingerprint %s != original %s", second.Result.Fingerprint, first.Result.Fingerprint)
	}
	m := clusterMetrics(t, hs.URL)
	if m.Cache.Captures != 0 {
		t.Fatalf("captures = %d in the restarted process, want 0 (disk frame)", m.Cache.Captures)
	}
	if m.Cache.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", m.Cache.DiskHits)
	}
}

// fakeWorker is a scripted worker: it accepts any job and serves a
// controllable job view — the instrument for failover and dedupe tests.
type fakeWorker struct {
	http *httptest.Server

	mu   sync.Mutex
	view server.JobView // guarded-by: mu
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	f := &fakeWorker{}
	f.view = server.JobView{ID: "fake-1", Status: server.StatusRunning}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		v := f.view
		f.mu.Unlock()
		v.Status = server.StatusQueued
		server.WriteJSON(w, http.StatusAccepted, v)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		v := f.view
		f.mu.Unlock()
		server.WriteJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, server.MetricsSnapshot{})
	})
	f.http = httptest.NewServer(mux)
	t.Cleanup(f.http.Close)
	return f
}

func (f *fakeWorker) complete(res *server.JobResult) {
	f.mu.Lock()
	f.view.Status = server.StatusDone
	f.view.Result = res
	f.mu.Unlock()
}

// TestClusterFailoverRedispatchDedupe pins the failover story end to end:
// a worker that stops heartbeating is declared dead, the point slice of a
// fanned sweep it had accepted is re-dispatched to the survivor and the
// merged result carries the single-node fingerprint; when the "dead"
// worker later reports its own completion of the slice, the duplicate is
// recognized by fingerprint and dropped, not double-counted. The
// over-bound case finishes more dispatches than the store retains before
// the duplicate arrives: the finished dispatch is the oldest eviction
// candidate, yet it must stay until its stray attempt settles, or the
// duplicate would go uncounted. The ring-routed case is the same story for
// a cacheable job, whose one part moves to the key's next ring owner.
func TestClusterFailoverRedispatchDedupe(t *testing.T) {
	// Slices go round the sorted live workers, so the second (the odd
	// points) lands on the fake (w2) and its death exercises failover.
	sweep := server.JobSpec{Kind: "sweep", Algorithm: "cholesky", NB: 8, MaxNT: 5, Reps: 2, Seed: 23}
	routed := findNTOwnedBy(t, []string{"w1", "w2"}, "w2",
		server.JobSpec{Algorithm: "cholesky", NB: 8, Reps: 1, Seed: 23})
	t.Run("within-bound", func(t *testing.T) { failoverRedispatchDedupe(t, sweep, 0) })
	t.Run("over-bound", func(t *testing.T) { failoverRedispatchDedupe(t, sweep, server.DefaultRetainJobs+1) })
	t.Run("ring-routed", func(t *testing.T) { failoverRedispatchDedupe(t, routed, 0) })
}

// submitMany submits n copies of spec concurrently and returns their views.
func submitMany(t *testing.T, baseURL string, spec server.JobSpec, n int) []DispatchView {
	t.Helper()
	views := make([]DispatchView, n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				views[i] = submitDispatch(t, baseURL, spec)
			}
		}(g)
	}
	wg.Wait()
	return views
}

// failoverRedispatchDedupe runs the story on a spec whose last part lands
// on w2, the fake.
func failoverRedispatchDedupe(t *testing.T, spec server.JobSpec, extra int) {
	w1 := newTestWorker(t, "")
	fake := newFakeWorker(t)

	c, hs := newTestCoordinator(t, "", w1)
	c.register("w2", fake.http.URL, "")
	stop := keepAlive(t, c, "w1", "w2")

	view := submitDispatch(t, hs.URL, spec)
	last := len(view.Parts) - 1
	if want := map[string]int{"sweep": 1, "simulate": 0}[spec.Kind]; last != want {
		t.Fatalf("%s dispatch sliced into %d parts, want %d", spec.Kind, last+1, want+1)
	}

	// Wait until the fake has accepted its part.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := getDispatch(t, hs.URL, view.ID)
		if v.Parts[last].Worker == "w2" && v.Parts[last].JobID != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("part never accepted by w2: %+v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Silence w2: heartbeats stop, the server stays up (partition, not
	// crash). The coordinator must declare it dead and re-dispatch to w1.
	stop("w2")
	final := waitDispatch(t, hs.URL, view.ID, 30*time.Second)
	if got := final.Parts[last]; got.Worker != "w1" || got.PointOffset != last || got.PointStride != 2*last {
		t.Fatalf("failover left the part as %+v, want the same slice on w1", got)
	}
	if final.Parts[last].Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (failover)", final.Parts[last].Attempts)
	}
	if c.failovers.Load() == 0 {
		t.Fatal("failover counter never incremented")
	}
	ref := runSingleNode(t, spec)
	if final.Result.Fingerprint != ref.Fingerprint {
		t.Fatalf("re-dispatched fingerprint %s != single-node %s", final.Result.Fingerprint, ref.Fingerprint)
	}

	// Push the dispatch table over the retention bound while w2's attempt is
	// still unsettled.
	if extra > 0 {
		// (The extras themselves are evicted as they finish, so they cannot
		// be polled by ID.)
		submitMany(t, hs.URL, server.JobSpec{Algorithm: "cholesky", NT: 2, NB: 8}, extra)
		for deadline := time.Now().Add(60 * time.Second); clusterMetrics(t, hs.URL).Inflight != 0; time.Sleep(20 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("extra dispatches never drained: %+v", clusterMetrics(t, hs.URL))
			}
		}
		if got := getDispatch(t, hs.URL, view.ID); got.Status != StatusDone {
			t.Fatalf("dispatch with an unsettled attempt was evicted at %d over the bound: %+v", extra, got)
		}
	}

	// The partitioned worker finally "completes" its copy of the slice with
	// the same deterministic result. The tracker must observe it and
	// dedupe by fingerprint.
	c.mu.Lock()
	partResult := c.dispatches[view.ID].parts[last].result
	c.mu.Unlock()
	if partResult == nil || (last > 0) == (partResult.Fingerprint == final.Result.Fingerprint) {
		t.Fatalf("part result %+v beside the dispatch's %s: a slice has its own fingerprint, a whole job the dispatch's", partResult, final.Result.Fingerprint)
	}
	fake.complete(partResult)
	deadline = time.Now().Add(10 * time.Second)
	for c.deduped.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("duplicate completion never deduped (mismatches=%d)", c.mismatches.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if c.mismatches.Load() != 0 {
		t.Fatalf("fingerprint mismatches = %d, want 0", c.mismatches.Load())
	}
	// Every attempt is settled now: the next accept may evict the dispatch.
	if extra > 0 {
		submitDispatch(t, hs.URL, server.JobSpec{Algorithm: "cholesky", NT: 2, NB: 8})
		if got := getDispatch(t, hs.URL, view.ID); got.ID != "" {
			t.Fatalf("settled dispatch still retained over the bound: %+v", got)
		}
	}
}

// TestClusterMetricsAggregation checks the /metrics merge: job counts and
// latency observations from several workers sum into one document, and
// the coordinator's latency bins are the bin-wise sums of the workers'
// own /metrics.
func TestClusterMetricsAggregation(t *testing.T) {
	w1, w2 := newTestWorker(t, ""), newTestWorker(t, "")
	c, hs := newTestCoordinator(t, "", w1, w2)
	keepAlive(t, c, "w1", "w2")

	// Two distinct cacheable jobs — likely split across workers, but the
	// aggregation must hold either way.
	for _, nt := range []int{3, 5} {
		spec := server.JobSpec{Algorithm: "cholesky", NT: nt, NB: 8, Reps: 1, Seed: 9}
		waitDispatch(t, hs.URL, submitDispatch(t, hs.URL, spec).ID, 30*time.Second)
	}
	m := clusterMetrics(t, hs.URL)
	if m.Jobs.Done != 2 {
		t.Fatalf("aggregated done = %d, want 2", m.Jobs.Done)
	}
	if m.Cache.Captures != 2 {
		t.Fatalf("aggregated captures = %d, want 2", m.Cache.Captures)
	}
	if m.Run.Count != 2 {
		t.Fatalf("aggregated run count = %d, want 2", m.Run.Count)
	}
	if m.Run.MeanMS <= 0 || m.Run.P95MS < m.Run.P50MS {
		t.Fatalf("merged run latency implausible: %+v", m.Run)
	}
	var own [2]server.MetricsSnapshot
	getJSON(t, w1.http.URL+"/metrics", &own[0])
	getJSON(t, w2.http.URL+"/metrics", &own[1])
	for _, s := range []struct {
		name   string
		merged server.LatencyStats
		parts  [2]server.LatencyStats
	}{
		{"run", m.Run, [2]server.LatencyStats{own[0].Run, own[1].Run}},
		{"queue_wait", m.QueueWait, [2]server.LatencyStats{own[0].QueueWait, own[1].QueueWait}},
	} {
		want, got := map[float64]int{}, map[float64]int{}
		for _, p := range s.parts {
			for _, b := range p.Histogram {
				want[b.LoMS] += b.Count
			}
		}
		for _, b := range s.merged.Histogram {
			got[b.LoMS] += b.Count
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("coordinator %s bins %v, the workers' summed %v", s.name, got, want)
		}
		if n := s.parts[0].Count + s.parts[1].Count; s.merged.Count != n {
			t.Fatalf("coordinator %s count %d, the workers' summed %d", s.name, s.merged.Count, n)
		}
	}
	if m.Live != 2 {
		t.Fatalf("live = %d, want 2", m.Live)
	}
}

// TestCoordinatorJournalRecovery checks what the coordinator inherits from
// the shared store: a log and a dispatch table that stay bounded however
// many dispatches finish, and a restart that restores the retained
// finished dispatches with their fingerprints, re-dispatches the
// acknowledged-but-unsent one, and mints IDs past everything recovered.
func TestCoordinatorJournalRecovery(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = server.DefaultCompactEvery + 44
	}
	dir := t.TempDir()
	fake := newFakeWorker(t)
	c1, err := New(Config{Key: testKey, DataDir: dir, HeartbeatTimeout: 250 * time.Millisecond, PollInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	hs1 := httptest.NewServer(c1.Handler())
	defer hs1.Close()
	c1.register("w1", fake.http.URL, "")
	stop := keepAlive(t, c1, "w1")

	// Accept and send everything first, then let the worker finish it all:
	// from here on the log only gains finish records.
	spec := server.JobSpec{Algorithm: "cholesky", NT: 4, NB: 8}
	views := submitMany(t, hs1.URL, spec, n)
	fake.complete(&server.JobResult{Fingerprint: "00000000feedface"})
	for _, v := range views {
		waitDispatch(t, hs1.URL, v.ID, 60*time.Second)
	}
	// One more, acknowledged with no live worker: journaled, never sent.
	stop("w1")
	for deadline := time.Now().Add(10 * time.Second); clusterMetrics(t, hs1.URL).Live != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("silent worker never declared dead")
		}
	}
	unsent := submitDispatch(t, hs1.URL, spec)

	m := clusterMetrics(t, hs1.URL)
	if !m.Store.Durable || m.Store.Compactions < uint64(n/server.DefaultCompactEvery) {
		t.Fatalf("store metrics %+v, want durable with a compaction every %d finishes", m.Store, server.DefaultCompactEvery)
	}
	if m.Store.LogRecords >= server.DefaultCompactEvery {
		t.Fatalf("log holds %d records after %d finished dispatches, want fewer than the compaction interval %d", m.Store.LogRecords, n, server.DefaultCompactEvery)
	}
	if m.Dispatches > server.DefaultRetainJobs+m.Inflight || m.Inflight != 1 {
		t.Fatalf("dispatch table holds %d with %d in flight, want at most %d retained plus the unsent one", m.Dispatches, m.Inflight, server.DefaultRetainJobs)
	}
	var listed struct{ Jobs []DispatchView }
	getJSON(t, hs1.URL+"/jobs", &listed)
	if len(listed.Jobs) != m.Dispatches || listed.Jobs[len(listed.Jobs)-1].ID != unsent.ID {
		t.Fatalf("GET /jobs lists %d dispatches ending in %s, want %d ending in %s", len(listed.Jobs), listed.Jobs[len(listed.Jobs)-1].ID, m.Dispatches, unsent.ID)
	}
	hs1.Close()
	c1.Shutdown()

	w1 := newTestWorker(t, "")
	c2, hs := newTestCoordinator(t, dir, w1)
	keepAlive(t, c2, "w1")
	if m := clusterMetrics(t, hs.URL); m.Store.Restored != len(listed.Jobs)-1 || m.Store.Recovered != 1 {
		t.Fatalf("restart restored %d and recovered %d, want %d and 1", m.Store.Restored, m.Store.Recovered, len(listed.Jobs)-1)
	}
	for _, was := range listed.Jobs[:len(listed.Jobs)-1] {
		got := getDispatch(t, hs.URL, was.ID)
		if got.Status != StatusDone || !got.Recovered || got.Result == nil || got.Result.Fingerprint != was.Result.Fingerprint {
			t.Fatalf("finished dispatch %s restored as %+v, want done with fingerprint %s", was.ID, got, was.Result.Fingerprint)
		}
	}
	final := waitDispatch(t, hs.URL, unsent.ID, 30*time.Second)
	if !final.Recovered {
		t.Fatal("recovered dispatch not flagged")
	}
	if ref := runSingleNode(t, spec); final.Result == nil || final.Result.Fingerprint != ref.Fingerprint {
		t.Fatalf("re-dispatched result %+v, want fingerprint %s", final.Result, ref.Fingerprint)
	}
	if fresh := submitDispatch(t, hs.URL, spec); fresh.ID <= unsent.ID {
		t.Fatalf("restarted coordinator minted %s, not past the recovered %s", fresh.ID, unsent.ID)
	}
}

// getJSON decodes a GET response body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// TestParentClusterJournalRecovers opens a cluster/ journal written by the
// simcoord binary of the commit before the shared store ("dispatch"
// accept records, fingerprint-only finishes, never compacted) and
// requires the dispatches that binary itself recovered from it
// (testdata/parent-coord/expected.json); the unsent one must then run.
func TestParentClusterJournalRecovers(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the fixture's fingerprints are from amd64")
	}
	var want []struct {
		ID, Status, Fingerprint string
		Recovered               bool
	}
	raw, err := os.ReadFile("testdata/parent-coord/expected.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	logRaw, err := os.ReadFile("testdata/parent-coord/log.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "cluster"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cluster", "log.jsonl"), logRaw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, hs := newTestCoordinator(t, dir)
	var listed struct{ Jobs []DispatchView }
	getJSON(t, hs.URL+"/jobs", &listed)
	if len(listed.Jobs) != len(want) {
		t.Fatalf("recovered %d dispatches, want %d", len(listed.Jobs), len(want))
	}
	for i, w := range want {
		got := listed.Jobs[i]
		fp := ""
		if got.Result != nil {
			fp = got.Result.Fingerprint
		}
		if got.ID != w.ID || got.Status != w.Status || fp != w.Fingerprint || got.Recovered != w.Recovered {
			t.Errorf("dispatch %d: id=%s status=%s fingerprint=%s recovered=%v, parent recovered %+v", i, got.ID, got.Status, fp, got.Recovered, w)
		}
	}
	if m := clusterMetrics(t, hs.URL); m.Store.Restored != 3 || m.Store.Recovered != 1 || m.Store.LogRecords != 0 {
		t.Fatalf("store metrics %+v, want 3 restored, 1 recovered and the log compacted away", m.Store)
	}
}

// TestCoordinatorAcceptFailureLeavesNoDispatch: a dispatch whose accept
// cannot be journaled is never inserted, so concurrent failing submits
// cannot leave the table and the order disagreeing — the tracker pumps
// through them and the API lists nothing.
func TestCoordinatorAcceptFailureLeavesNoDispatch(t *testing.T) {
	c, hs := newTestCoordinator(t, t.TempDir())
	if err := c.store.Close(); err != nil { // every append fails from here on
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.submit(server.JobSpec{Algorithm: "cholesky", NT: 4, NB: 8}, [2]string{}); err == nil {
					t.Error("submit acknowledged a dispatch the journal refused")
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		c.pump(false)
	}
	wg.Wait()
	c.pump(false)
	var listed struct{ Jobs []DispatchView }
	getJSON(t, hs.URL+"/jobs", &listed)
	if m := clusterMetrics(t, hs.URL); len(listed.Jobs) != 0 || m.Dispatches != 0 {
		t.Fatalf("failed submits left %d listed and %d tabled dispatches, want none", len(listed.Jobs), m.Dispatches)
	}
}
