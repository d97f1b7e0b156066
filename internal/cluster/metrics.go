package cluster

import (
	"net/http"
	"time"

	"supersim/internal/server"
	"supersim/internal/stats"
)

// MetricsSnapshot is the coordinator's /metrics document: its own control
// counters plus the cluster-wide aggregation of every live worker's
// /metrics. Cache counters sum (so "captures" across the cluster reads
// exactly like a single node's), and latency histograms merge via
// stats.MergeHistograms with quantiles re-derived from the merged bins.
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
	snap.QueueWait = mergeLatency(queueWaits)
	snap.Run = mergeLatency(runs)
	return snap
}

// histFromBins reconstructs a stats.Histogram from its JSON bin form.
func histFromBins(bins []server.HistogramBin) *stats.Histogram {
	if len(bins) == 0 {
		return nil
	}
	h := &stats.Histogram{
		Lo:     bins[0].LoMS,
		Hi:     bins[len(bins)-1].HiMS,
		Counts: make([]int, len(bins)),
		Edges:  make([]float64, len(bins)+1),
	}
	h.Width = (h.Hi - h.Lo) / float64(len(bins))
	for i, b := range bins {
		h.Counts[i] = b.Count
		h.Edges[i] = b.LoMS
		h.N += b.Count
	}
	h.Edges[len(bins)] = bins[len(bins)-1].HiMS
	return h
}

// clusterLatencyBins matches the workers' per-series bin count.
const clusterLatencyBins = 10

// mergeLatency folds several workers' latency series into one: counts
// sum, means combine weighted by retained-sample mass, the max is the max
// of maxes, and the histogram (with its p50/p95) is the stats.Histogram
// merge of the per-worker histograms — exact for identical bin edges,
// mass-preserving rebinning otherwise.
func mergeLatency(series []server.LatencyStats) server.LatencyStats {
	var out server.LatencyStats
	var hs []*stats.Histogram
	var weighted, mass float64
	for _, s := range series {
		out.Count += s.Count
		if s.MaxMS > out.MaxMS {
			out.MaxMS = s.MaxMS
		}
		h := histFromBins(s.Histogram)
		if h == nil {
			continue
		}
		hs = append(hs, h)
		// Weight the mean by the histogram mass (the retained window), not
		// the lifetime count: both sides of the average cover the same
		// samples.
		weighted += s.MeanMS * float64(h.N)
		mass += float64(h.N)
	}
	merged := stats.MergeHistograms(hs, clusterLatencyBins)
	if merged == nil {
		return out
	}
	if mass > 0 {
		out.MeanMS = weighted / mass
	}
	out.P50MS = histQuantile(merged, 0.50)
	out.P95MS = histQuantile(merged, 0.95)
	out.Histogram = make([]server.HistogramBin, len(merged.Counts))
	for i, n := range merged.Counts {
		out.Histogram[i] = server.HistogramBin{LoMS: merged.Edges[i], HiMS: merged.Edges[i+1], Count: n}
	}
	return out
}

// histQuantile reads quantile q off a histogram by linear interpolation
// within the bin where the cumulative mass crosses q — the resolution the
// merged representation supports.
func histQuantile(h *stats.Histogram, q float64) float64 {
	if h == nil || h.N == 0 {
		return 0
	}
	target := q * float64(h.N)
	cum := 0.0
	for i, n := range h.Counts {
		next := cum + float64(n)
		if next >= target && n > 0 {
			frac := (target - cum) / float64(n)
			return h.Edges[i] + frac*(h.Edges[i+1]-h.Edges[i])
		}
		cum = next
	}
	return h.Edges[len(h.Edges)-1]
}
