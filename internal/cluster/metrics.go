package cluster

import (
	"net/http"
	"time"

	"supersim/internal/server"
)

// MetricsSnapshot is the coordinator's /metrics document: its own control
// counters plus the cluster-wide aggregation of every live worker's
// /metrics. Cache counters sum (so "captures" across the cluster reads
// exactly like a single node's), and latency histograms merge bin by bin
// on the shared bucket table (server.MergeLatency), so the cluster's
// quantiles are those of one node that had run every worker's jobs.
type MetricsSnapshot struct {
	UptimeMS   float64        `json:"uptime_ms"`
	Workers    []WorkerStatus `json:"workers"`
	Live       int            `json:"live"`
	Dispatches int            `json:"dispatches"`
	Inflight   int            `json:"inflight"`
	// Dispatched counts part submissions accepted by workers; Failovers
	// counts parts re-routed off dead workers; Deduped counts duplicate
	// completions dropped because their fingerprints matched the already
	// recorded result; Mismatches counts duplicates that disagreed (an
	// invariant violation worth alerting on — it should stay 0).
	Dispatched uint64 `json:"dispatched"`
	Failovers  uint64 `json:"failovers"`
	Deduped    uint64 `json:"deduped"`
	Mismatches uint64 `json:"mismatches"`
	// DoneHints counts accepted worker done hints; TickCompletions counts
	// terminal part views the tracker first fetched on a tick pass, not a
	// kicked one — completions no hint announced in time. On a healthy
	// cluster it stays a few per cent of Dispatched at most (a tick can
	// land between a part's end and its hint's pass); when it follows
	// Dispatched, hints are not arriving and every part waits for the tick.
	DoneHints       uint64 `json:"done_hints"`
	TickCompletions uint64 `json:"tick_completions"`
	// Store is the dispatch store's section, as on a worker: journal
	// sequence, live log length, compactions, and what the last start
	// recovered (re-dispatched) and restored (finished, fingerprint kept).
	Store server.StoreStats `json:"store"`

	Jobs      server.JobCounts    `json:"jobs"`
	Cache     server.CacheStats   `json:"cache"`
	QueueWait server.LatencyStats `json:"queue_wait"`
	Run       server.LatencyStats `json:"run"`
	// Unreachable lists live workers whose /metrics fetch failed; their
	// counters are missing from the aggregates above.
	Unreachable []string `json:"unreachable,omitempty"`
}

// Metrics assembles the cluster-wide snapshot, fetching each live
// worker's /metrics.
func (c *Coordinator) Metrics() MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeMS:        float64(time.Since(c.start).Nanoseconds()) / 1e6,
		Workers:         c.workerStatuses(),
		Dispatched:      c.dispatched.Load(),
		Failovers:       c.failovers.Load(),
		Deduped:         c.deduped.Load(),
		Mismatches:      c.mismatches.Load(),
		DoneHints:       c.doneHints.Load(),
		TickCompletions: c.tickCompletions.Load(),
		Store:           c.store.Stats(),
	}
	type target struct{ name, url string }
	var targets []target
	c.mu.Lock()
	snap.Dispatches = len(c.dispatches)
	for _, d := range c.dispatches {
		if d.status != StatusDone && d.status != StatusFailed {
			snap.Inflight++
		}
	}
	for _, w := range c.liveWorkersLocked() {
		snap.Live++
		targets = append(targets, target{w.name, w.url})
	}
	c.mu.Unlock()

	var queueWaits, runs []server.LatencyStats
	for _, t := range targets {
		var m server.MetricsSnapshot
		status, err := c.workerRequest(http.MethodGet, t.url+"/metrics", nil, [2]string{}, nil, &m)
		if err != nil || status != http.StatusOK {
			snap.Unreachable = append(snap.Unreachable, t.name)
			continue
		}
		snap.Jobs.Submitted += m.Jobs.Submitted
		snap.Jobs.Queued += m.Jobs.Queued
		snap.Jobs.Running += m.Jobs.Running
		snap.Jobs.Done += m.Jobs.Done
		snap.Jobs.Failed += m.Jobs.Failed
		snap.Jobs.Dead += m.Jobs.Dead
		snap.Jobs.Rejected += m.Jobs.Rejected
		snap.Jobs.RateLimited += m.Jobs.RateLimited
		snap.Jobs.Retries += m.Jobs.Retries
		snap.Cache.Hits += m.Cache.Hits
		snap.Cache.DiskHits += m.Cache.DiskHits
		snap.Cache.PeerHits += m.Cache.PeerHits
		snap.Cache.Misses += m.Cache.Misses
		snap.Cache.Bypass += m.Cache.Bypass
		snap.Cache.Captures += m.Cache.Captures
		snap.Cache.Entries += m.Cache.Entries
		snap.Cache.Evictions += m.Cache.Evictions
		snap.Cache.DiskWrites += m.Cache.DiskWrites
		snap.Cache.DiskDrops += m.Cache.DiskDrops
		snap.Cache.FramesServed += m.Cache.FramesServed
		queueWaits = append(queueWaits, m.QueueWait)
		runs = append(runs, m.Run)
	}
	snap.QueueWait = server.MergeLatency(queueWaits...)
	snap.Run = server.MergeLatency(runs...)
	return snap
}
