package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sync"

	"supersim/internal/bench"
	"supersim/internal/server"
)

// Shares of the run's seconds the traced run spends in its two windows;
// the rest of the run is the layer probes.
const (
	baselineShare = 0.3 // tracing off: the reference for trace_overhead_pct
	tracedShare   = 0.5 // tracing on: client spans, job views, /metrics deltas
)

// metricsDoc decodes GET /metrics of a simd and of a coordinator alike:
// the coordinator's document sums its workers' job and cache counters and
// merges their latency rings, and adds its own control counters.
type metricsDoc struct {
	Jobs       server.JobCounts    `json:"jobs"`
	Cache      server.CacheStats   `json:"cache"`
	QueueWait  server.LatencyStats `json:"queue_wait"`
	Run        server.LatencyStats `json:"run"`
	Failovers  uint64              `json:"failovers"`
	Deduped    uint64              `json:"deduped"`
	Mismatches uint64              `json:"mismatches"`
}

func fetchMetrics(url string) (metricsDoc, error) {
	var doc metricsDoc
	c := newAPIClient(url)
	defer c.close()
	status, err := c.do(http.MethodGet, "/metrics", nil, &doc)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s/metrics returned %d", url, status)
	}
	return doc, err
}

func opsPerSecond(w window) float64 { return float64(len(w.results)) / w.elapsed.Seconds() }

// traffic is one traced window of jobs with the server's (or the
// coordinator's) /metrics read before and after it.
type traffic struct {
	window
	before, after metricsDoc
}

// tracedWindow runs lim against a served instance with tracing on. A
// failed op fails the traced run: its layer numbers would describe
// something else.
func tracedWindow(inst *instance, lim limit, tr *tracer) (traffic, error) {
	var t traffic
	var err error
	if t.before, err = fetchMetrics(inst.metricsURL); err != nil {
		return t, err
	}
	t.window = runWindow(inst, lim, tr)
	if t.after, err = fetchMetrics(inst.metricsURL); err != nil {
		return t, err
	}
	return t, t.window.check()
}

// client fills the client-side metrics of the traffic.
func (t traffic) client(out map[string]float64) {
	polls := 0
	var accept []float64
	for _, r := range t.results {
		polls += r.polls
		accept = append(accept, float64(r.accept)/1e6)
	}
	out["client.polls_per_op"] = float64(polls) / float64(len(t.results))
	out["client.accept_p50_ms"] = median(accept)
}

// server fills server.*: where each job's latency went according to its
// own view, and what the window did to the capture cache. A coordinator's
// dispatch views carry no timings; there the merged worker rings stand in,
// and the residual is what the coordinator added.
func (t traffic) server(out map[string]float64) {
	var lat, queue, run []float64
	for _, r := range t.results {
		lat = append(lat, float64(r.latency)/1e6)
		queue = append(queue, float64(r.queueNS)/1e6)
		run = append(run, float64(r.runNS)/1e6)
	}
	q, x := median(queue), median(run)
	if x == 0 {
		q, x = t.after.QueueWait.P50MS, t.after.Run.P50MS
	}
	out["server.queue_wait_ms"] = q
	out["server.run_ms"] = x
	out["server.residual_ms"] = median(lat) - q - x

	b, a := t.before.Cache, t.after.Cache
	hits, disk, miss := a.Hits-b.Hits, a.DiskHits-b.DiskHits, a.Misses-b.Misses
	jobs := float64(max(1, hits+disk+miss+(a.PeerHits-b.PeerHits)+(a.Bypass-b.Bypass)))
	out["server.cache_hit_ratio"] = float64(hits) / jobs
	out["server.cache_disk_ratio"] = float64(disk) / jobs
	out["server.cache_miss_ratio"] = float64(miss) / jobs
	out["server.captures"] = float64(a.Captures - b.Captures)
	out["server.evictions"] = float64(a.Evictions - b.Evictions)
	out["server.disk_writes"] = float64(a.DiskWrites - b.DiskWrites)
	out["server.rejected"] = float64(t.after.Jobs.Rejected - t.before.Jobs.Rejected)
}

// cluster fills cluster.* from dispatches through a coordinator.
func (t traffic) cluster(out map[string]float64) {
	var lat []float64
	parts := 0
	for _, r := range t.results {
		lat = append(lat, float64(r.latency)/1e6)
		parts += r.parts
	}
	out["cluster.parts_per_op"] = float64(parts) / float64(len(t.results))
	out["cluster.worker_run_ms"] = t.after.Run.P50MS
	out["cluster.coord_overhead_ms"] = median(lat) - t.after.QueueWait.P50MS - t.after.Run.P50MS
	out["cluster.failovers"] = float64(t.after.Failovers - t.before.Failovers)
	out["cluster.deduped"] = float64(t.after.Deduped - t.before.Deduped)
	out["cluster.mismatches"] = float64(t.after.Mismatches - t.before.Mismatches)
}

// runTraced is the per-layer run: a fresh boot, a short untraced window,
// a traced window of the workload's own traffic, then the layer probes on
// the workload's own spec. Traffic a workload does not generate itself —
// jobs through a simd for the library workloads, dispatches through a
// coordinator for all but cluster-sweep — comes from a few probe
// operations with the same spec, so every traced run reports every layer.
func runTraced(def *workloadDef, env *runEnv, outDir string) (runResult, error) {
	res := runResult{Workload: def.name, Seed: env.seed, Trace: true}
	out := map[string]float64{}
	tr := newTracer()

	inst, err := def.setup(env)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	closeInst := sync.OnceFunc(inst.close)
	defer closeInst()
	if err := warmUp(inst); err != nil {
		return res, err
	}
	base := runWindow(inst, measuredLimit(inst, env.seconds, baselineShare), nil)
	if err := base.check(); err != nil {
		return res, err
	}
	served, clustered, spec := inst.metricsURL != "", inst.clustered, inst.probe
	lim := measuredLimit(inst, env.seconds, tracedShare)
	var traced window
	if served {
		t, err := tracedWindow(inst, lim, tr)
		if err != nil {
			return res, err
		}
		t.client(out)
		t.server(out)
		if clustered {
			t.cluster(out)
		}
		traced = t.window
	} else {
		traced = runWindow(inst, lim, tr)
		if err := traced.check(); err != nil {
			return res, err
		}
	}
	out["client.trace_overhead_pct"] = (opsPerSecond(base) - opsPerSecond(traced)) / opsPerSecond(base) * 100
	res.Attempted = base.attempted + traced.attempted
	res.Samples = len(traced.results)
	closeInst() // the probes get the machine to themselves

	ops, err := bench.Ops(spec)
	if err != nil {
		return res, err
	}
	p := &prober{tr: tr, env: env, reps: probeReps(len(ops)), out: out}
	if err := p.probeBench(spec); err != nil {
		return res, err
	}
	if err := p.probeSchedCore(spec, ops); err != nil {
		return res, err
	}
	frame, err := p.probeReplayTrace(spec, ops)
	if err != nil {
		return res, err
	}
	if err := p.probeJournal(frame); err != nil {
		return res, err
	}
	if err := p.probePerfmodel(); err != nil {
		return res, err
	}
	p.probeRing()

	// A simd holding the workload's spec as its one warm key: the target
	// of the call probes, and the source of job traffic for a workload
	// that has none.
	jobSpec := server.JobSpec{Algorithm: spec.Algorithm, Scheduler: spec.Scheduler, Policy: spec.Policy, NT: spec.NT, NB: spec.NB, Workers: spec.Workers, Reps: 1}
	probeSimd, err := simWorkload(env, []simKey{{spec: jobSpec}}, spec)
	if err != nil {
		return res, err
	}
	defer probeSimd.close()
	probeSimd.callers = 1
	if err := drive(probeSimd, 1); err != nil {
		return res, err
	}
	probeSimd.wantCache = "hit"
	if err := p.probeServer(probeSimd, jobSpec); err != nil {
		return res, err
	}
	if !served {
		t, err := tracedWindow(probeSimd, limit{ops: 8 * p.reps}, tr)
		if err != nil {
			return res, err
		}
		t.client(out)
		t.server(out)
	}
	if !clustered {
		probeCluster, err := setupClusterSweep(env)
		if err != nil {
			return res, err
		}
		defer probeCluster.close()
		t, err := tracedWindow(probeCluster, limit{ops: 6}, tr)
		if err != nil {
			return res, err
		}
		t.cluster(out)
	}

	spans := tr.snapshot()
	printSpanSummary(def.name, spans)
	if err := writeSpanFile(filepath.Join(outDir, "trace-"+def.name+".json"), def.name, env.seed, spans); err != nil {
		return res, err
	}
	res.Correct = true // any failed op ended the run above
	var missing []string
	res.Metrics, missing = pick(perLayer, out)
	if len(missing) > 0 {
		return res, fmt.Errorf("per-layer metrics not measured: %v", missing)
	}
	return res, nil
}
