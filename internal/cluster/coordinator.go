package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"supersim/internal/server"
	"supersim/internal/workload"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Key is the cluster's shared secret (required). Workers must be
	// started with the same key (-cluster-key): it authenticates
	// register/heartbeat traffic, the coordinator's job submissions to
	// workers, and the peer frame endpoint.
	Key string
	// DataDir, when set, opens the dispatch store (the workers' job store,
	// server.Store) under <DataDir>/cluster/, so a restarted coordinator
	// restores finished dispatches with their fingerprints and
	// re-dispatches acknowledged-but-unfinished work (specs only — results
	// and client credentials are not journaled; recovered dispatches
	// resubmit under the workers' anonymous tenant).
	DataDir string
	// HeartbeatInterval is the base heartbeat cadence advertised to
	// workers (they jitter it ×[0.5,1.5); default 2s).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a worker may go silent before it is
	// declared dead, removed from the ring, and its unfinished dispatches
	// re-routed (default 4× HeartbeatInterval).
	HeartbeatTimeout time.Duration
	// PollInterval is the tracker's backstop cadence (default 250ms). Sends
	// go out when a submission kicks the tracker and results are fetched
	// when a worker's done hint does; the tick is what detects dead
	// workers, retries refused sends and finds a finished part whose hint
	// was lost.
	PollInterval time.Duration
	// Client is the HTTP client for worker traffic (default: 30s timeout).
	Client *http.Client
}

func (c *Config) fill() error {
	if c.Key == "" {
		return fmt.Errorf("cluster: coordinator requires a shared key")
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 4 * c.HeartbeatInterval
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return nil
}

// worker is one registered simd instance. All fields after name are
// guarded by the owning Coordinator's mu (cross-struct lock).
type worker struct {
	name string
	url  string // guarded by Coordinator.mu
	// hintURL is this coordinator's base URL as the worker reaches it (the
	// address its agent registered at), sent back on each part submission
	// as the done-hint address; "" sends none and the tick finds its parts.
	hintURL string // guarded by Coordinator.mu

	lastBeat time.Time // guarded by Coordinator.mu
	live     bool      // guarded by Coordinator.mu
}

// Part statuses.
const (
	partPending = "pending" // not yet accepted by a worker
	partSent    = "sent"    // accepted (worker returned 202); being polled
	partDone    = "done"
	partFailed  = "failed"
)

// attempt is one (worker, worker-job) incarnation of a part. Failover
// creates a new attempt; prior attempts keep being polled so a
// falsely-declared-dead worker's completion is recognized and deduplicated
// by fingerprint instead of double-counted.
type attempt struct {
	Worker string          `json:"worker"`
	JobID  string          `json:"job_id,omitempty"`
	view   *server.JobView // guarded by Coordinator.mu — last poll
	// settled marks the attempt resolved (terminal status seen, job gone,
	// or abandoned on a dead worker): the tracker stops polling it. An
	// unsettled attempt keeps being polled even after its dispatch
	// finishes, so a duplicate completion is observed and deduplicated
	// instead of silently ignored.
	settled bool // guarded by Coordinator.mu
}

// part is one worker-sized slice of a dispatch: the whole job, or one
// point slice (JobSpec.PointOffset/PointStride; stride 0 = unsliced) of a
// fanned-out sweep. All fields are guarded by the owning Coordinator's mu.
type part struct {
	pointOffset, pointStride int
	attempts                 []*attempt // guarded by Coordinator.mu — last is current
	status                   string     // guarded by Coordinator.mu
	result                   *server.JobResult
}

func (p *part) current() *attempt { return p.attempts[len(p.attempts)-1] }

// polled reports whether the tracker still polls the attempt: it reached
// a worker and is not resolved yet.
func (a *attempt) polled() bool { return !a.settled && a.JobID != "" && a.Worker != "" }

// Dispatch statuses (client-visible).
const (
	StatusQueued  = "queued" // accepted; at least one part not yet on a worker
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// dispatch is one client job accepted by the coordinator. All mutable
// fields are guarded by the owning Coordinator's mu.
type dispatch struct {
	id       string
	spec     server.JobSpec
	routeKey string    // "" for non-cacheable specs
	auth     [2]string // forwarded X-API-Key / Authorization values

	parts     []*part // guarded by Coordinator.mu
	status    string  // guarded by Coordinator.mu
	result    *server.JobResult
	errMsg    string // guarded by Coordinator.mu
	recovered bool   // re-dispatched by journal recovery
}

// Coordinator is the simcluster control plane: it registers workers,
// routes jobs onto the consistent-hash ring by capture key, fans sweeps
// out as point slices, ships frame-location hints, fetches each part's
// result when its worker says it is done (or on the tick), merges results,
// and fails work over off dead workers.
type Coordinator struct {
	cfg Config
	// store is the dispatches' journaled lifecycle: it holds their records
	// in accept order, mints their IDs and bounds how many finished ones
	// are retained. Journaled under DataDir, memory-only without.
	store *server.Store
	mux   *http.ServeMux

	mu          sync.Mutex
	workers     map[string]*worker   // guarded-by: mu
	ring        *Ring                // guarded-by: mu
	dispatches  map[string]*dispatch // guarded-by: mu — the live side of the store's records
	routeOrigin map[string]string    // guarded-by: mu — route key → worker last known to hold its frame

	dispatched atomic.Uint64 // parts sent to workers
	failovers  atomic.Uint64 // parts re-routed off a dead worker
	deduped    atomic.Uint64 // duplicate completions dropped by fingerprint
	mismatches atomic.Uint64 // duplicate completions whose fingerprints diverged
	doneHints  atomic.Uint64 // done hints accepted on POST /cluster/done
	// tickCompletions counts terminal part views first fetched on a tick
	// pass of the tracker rather than a kicked one: completions no hint
	// announced in time.
	tickCompletions atomic.Uint64

	start time.Time
	kick  chan struct{} // nudges the tracker out of its poll sleep
	// ctx ends at Shutdown: it stops the tracker and cancels every worker
	// request in flight, so a wedged worker cannot hold Shutdown for the
	// client timeout.
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
}

// New constructs a Coordinator, opens the dispatch store (recovering it
// when Config.DataDir is set) and starts the tracker loop.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	dir := ""
	if cfg.DataDir != "" {
		dir = filepath.Join(cfg.DataDir, "cluster")
	}
	st, err := server.OpenStore(dir, "d-", server.DefaultCompactEvery, server.DefaultRetainJobs)
	if err != nil {
		return nil, err
	}
	dispatches := make(map[string]*dispatch)
	for _, rec := range st.Jobs() {
		dispatches[rec.ID] = dispatchFromRecord(rec)
	}
	c := &Coordinator{
		cfg:         cfg,
		store:       st,
		workers:     make(map[string]*worker),
		ring:        NewRing(0),
		dispatches:  dispatches,
		routeOrigin: make(map[string]string),
		start:       time.Now(),
		kick:        make(chan struct{}, 1),
	}
	c.ctx, c.stop = context.WithCancel(context.Background())
	c.mux = c.routes()
	c.wg.Add(1)
	go c.track()
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Shutdown stops the tracker and closes the store. In-flight worker jobs
// keep running on their workers; a restarted coordinator re-adopts
// journaled unfinished dispatches by re-dispatching them.
func (c *Coordinator) Shutdown() {
	c.stop()
	c.wg.Wait()
	_ = c.store.Close() // a failed final compaction only means a longer recovery replay
}

// register adds (or revives) a worker. Same-name re-registration updates
// the URLs — the restart case.
func (c *Coordinator) register(name, url, hintURL string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[name]
	if w == nil {
		w = &worker{name: name}
		c.workers[name] = w
	}
	w.url = url
	w.hintURL = hintURL
	w.lastBeat = time.Now()
	w.live = true
	c.ring.Add(name)
	c.kickTracker()
}

// heartbeat records a worker's liveness proof; false means the worker is
// unknown (a restarted coordinator) and must re-register.
func (c *Coordinator) heartbeat(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[name]
	if w == nil {
		return false
	}
	w.lastBeat = time.Now()
	if !w.live {
		// Rejoin after a missed-heartbeat death: back onto the ring.
		w.live = true
		c.ring.Add(name)
		c.kickTracker()
	}
	return true
}

func (c *Coordinator) kickTracker() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// liveWorkersLocked returns the live workers sorted by name.
// Caller holds c.mu. The sort keeps every placement decision derived from
// this list deterministic (and detmap-clean) regardless of map iteration
// order.
func (c *Coordinator) liveWorkersLocked() []*worker {
	out := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		if w.live {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// submit admits one client job: it validates the spec, slices it into
// parts, journals the acceptance (fsynced, outside c.mu — the 202 must not
// outrun the fsync and the fsync must not block handlers) and only then
// inserts the dispatch, leaving its parts for the tracker to place.
func (c *Coordinator) submit(spec server.JobSpec, auth [2]string) (DispatchView, error) {
	if err := spec.Validate(); err != nil {
		return DispatchView{}, err
	}
	if spec.PointStride > 1 {
		return DispatchView{}, fmt.Errorf("cluster: point_stride is coordinator-internal; submit an unsliced sweep")
	}
	d := &dispatch{
		id:     c.store.NextID(),
		spec:   spec,
		auth:   auth,
		status: StatusQueued,
	}
	if spec.Cacheable() {
		d.routeKey = spec.RouteKey()
	}
	c.mu.Lock()
	d.parts = c.sliceLocked(d)
	rec := d.record()
	c.mu.Unlock()

	if err := c.store.Accept(rec); err != nil {
		return DispatchView{}, fmt.Errorf("cluster: journaling dispatch: %w", err)
	}
	c.mu.Lock()
	c.dispatches[d.id] = d
	for _, id := range c.store.Evict(c.evictableLocked) {
		delete(c.dispatches, id)
	}
	view := c.dispatchView(d)
	c.mu.Unlock()
	c.kickTracker()
	return view, nil
}

// evictableLocked is the coordinator's answer to the store's retention
// rule: a finished dispatch may go only once the tracker polls none of its
// attempts any more — until then a falsely-dead worker's duplicate
// completion must still be counted in deduped/mismatches.
// Caller holds c.mu.
func (c *Coordinator) evictableLocked(id string) bool {
	d := c.dispatches[id]
	if d == nil {
		return true
	}
	for _, p := range d.parts {
		for _, att := range p.attempts {
			if att.polled() {
				return false
			}
		}
	}
	return true
}

// sliceLocked splits a dispatch into parts. A sweep fans out across the
// live workers as point slices (stride = part count), at most one part per
// point; everything else is a single part. Caller holds c.mu.
func (c *Coordinator) sliceLocked(d *dispatch) []*part {
	fan := 1
	if d.spec.Kind == "sweep" {
		fan = max(1, min(len(c.liveWorkersLocked()), len(workload.PerfSweep(d.spec.NB, d.spec.MaxNT))))
	}
	stride := fan
	if fan == 1 {
		stride = 0 // unsliced
	}
	parts := make([]*part, fan)
	for i := range parts {
		parts[i] = &part{
			pointOffset: i, pointStride: stride,
			status:   partPending,
			attempts: []*attempt{{}}, // current() must always resolve
		}
	}
	return parts
}

// placeLocked picks the worker for one part of a dispatch, or "" when no
// live worker exists. Cacheable jobs go to the ring owner of their route
// key, so repeats land where the frame already lives; fanned-out sweep
// slices round-robin across the live workers (slice i on worker i mod
// live — maximal spread); other non-cacheable jobs hash their dispatch
// identity onto the ring, spreading load without disturbing cache
// routing. Caller holds c.mu.
func (c *Coordinator) placeLocked(d *dispatch, idx int) string {
	if d.routeKey != "" {
		owner, ok := c.ring.Owner(d.routeKey)
		if !ok {
			return ""
		}
		return owner
	}
	if len(d.parts) > 1 {
		live := c.liveWorkersLocked()
		if len(live) == 0 {
			return ""
		}
		return live[idx%len(live)].name
	}
	owner, ok := c.ring.Owner(fmt.Sprintf("%s/%d", d.id, idx))
	if !ok {
		return ""
	}
	return owner
}

// frameHintLocked returns the URL of the worker last known to hold the
// dispatch's frame, when that is a different live worker than the
// assignee — the coordinator's routing hint that turns a ring change into
// a peer frame fetch instead of a re-capture. Caller holds c.mu.
func (c *Coordinator) frameHintLocked(d *dispatch, assignee string) string {
	if d.routeKey == "" {
		return ""
	}
	origin := c.routeOrigin[d.routeKey]
	if origin == "" || origin == assignee {
		return ""
	}
	w := c.workers[origin]
	if w == nil || !w.live {
		return ""
	}
	return w.url
}

// Snapshot types for the HTTP API.

// PartView is one part of a dispatch as served by the API.
type PartView struct {
	Worker      string `json:"worker,omitempty"`
	JobID       string `json:"job_id,omitempty"`
	Status      string `json:"status"`
	PointOffset int    `json:"point_offset,omitempty"`
	PointStride int    `json:"point_stride,omitempty"`
	Attempts    int    `json:"attempts"`
}

// DispatchView is the JSON representation of one coordinator job.
type DispatchView struct {
	ID        string            `json:"id"`
	Status    string            `json:"status"`
	Kind      string            `json:"kind"`
	Algorithm string            `json:"algorithm"`
	RouteKey  string            `json:"route_key,omitempty"`
	Recovered bool              `json:"recovered,omitempty"`
	Parts     []PartView        `json:"parts"`
	Error     string            `json:"error,omitempty"`
	Result    *server.JobResult `json:"result,omitempty"`
}

// dispatchView renders one dispatch for the API. Caller holds c.mu.
func (c *Coordinator) dispatchView(d *dispatch) DispatchView {
	v := DispatchView{
		ID:        d.id,
		Status:    d.status,
		Kind:      d.spec.Kind,
		Algorithm: d.spec.Algorithm,
		RouteKey:  d.routeKey,
		Recovered: d.recovered,
		Error:     d.errMsg,
		Result:    d.result,
	}
	for _, p := range d.parts {
		cur := p.current()
		v.Parts = append(v.Parts, PartView{
			Worker:      cur.Worker,
			JobID:       cur.JobID,
			Status:      p.status,
			PointOffset: p.pointOffset,
			PointStride: p.pointStride,
			Attempts:    len(p.attempts),
		})
	}
	return v
}

// WorkerStatus is one worker's row in /healthz and /metrics.
type WorkerStatus struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	Live bool   `json:"live"`
	// SilentMS is how long ago the last heartbeat (or registration)
	// arrived.
	SilentMS int64 `json:"silent_ms"`
}

// workerStatuses snapshots the worker table sorted by name.
func (c *Coordinator) workerStatuses() []WorkerStatus {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerStatus{
			Name: w.name, URL: w.url, Live: w.live,
			SilentMS: now.Sub(w.lastBeat).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// record copies the dispatch's durable fields into its store record — the
// one place a dispatch becomes a server.JobRecord (dispatchFromRecord is
// the inverse). Client credentials are deliberately absent: a recovered
// dispatch resubmits under the workers' anonymous tenant rather than
// persisting secrets. Of the result only the fingerprint is kept, so
// operators can audit exactly-once across restarts.
// Caller holds c.mu, or has not shared the dispatch yet.
func (d *dispatch) record() server.JobRecord {
	rec := server.JobRecord{ID: d.id, Spec: &d.spec, JobOutcome: server.JobOutcome{Status: d.status}}
	if d.result != nil {
		rec.Fingerprint = d.result.Fingerprint
	}
	return rec
}

// dispatchFromRecord rebuilds a dispatch from its store record. A finished
// one is restored with its verdict and fingerprint; an unfinished one
// becomes a single pending part the tracker re-dispatches once workers
// register.
func dispatchFromRecord(rec server.JobRecord) *dispatch {
	d := &dispatch{id: rec.ID, spec: *rec.Spec, recovered: true, status: StatusQueued}
	if d.spec.Cacheable() {
		d.routeKey = d.spec.RouteKey()
	}
	p := &part{status: partPending, attempts: []*attempt{{}}}
	if rec.Finished() {
		d.status = rec.Status
		p.status = partDone
		if rec.Fingerprint != "" {
			d.result = &server.JobResult{Fingerprint: rec.Fingerprint}
		}
	}
	d.parts = []*part{p}
	return d
}

// --- HTTP plumbing shared with the tracker ---

// workerRequest issues one authenticated request to a worker, decoding a
// JSON response body into out (when non-nil). Returns the status code.
// The request dies with the coordinator (c.ctx).
func (c *Coordinator) workerRequest(method, url string, body any, auth [2]string, hdr map[string]string, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Cluster-Key", c.cfg.Key)
	if auth[0] != "" {
		req.Header.Set("X-API-Key", auth[0])
	}
	if auth[1] != "" {
		req.Header.Set("Authorization", auth[1])
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}
