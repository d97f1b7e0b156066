package server

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"supersim/internal/perf"
)

// metrics aggregates the service counters exposed by /metrics: job
// lifecycle counts, capture-cache effectiveness and latency histograms.
// Producers (HTTP handlers, pool workers) update atomics only; Snapshot
// assembles a JSON-ready document.
type metrics struct {
	submitted   atomic.Uint64
	done        atomic.Uint64
	failed      atomic.Uint64
	dead        atomic.Uint64 // dead-lettered after exhausting the retry budget
	rejected    atomic.Uint64 // admission-control refusals (queue full, share, draining)
	rateLimited atomic.Uint64 // token-bucket refusals
	retries     atomic.Uint64 // backoff re-runs scheduled
	running     atomic.Int64  // gauge: jobs currently executing

	cacheHits   atomic.Uint64
	cacheDisk   atomic.Uint64 // jobs served from a persisted .dag frame
	cachePeer   atomic.Uint64 // jobs served from a frame fetched off a cluster peer
	cacheMisses atomic.Uint64
	cacheBypass atomic.Uint64 // jobs ineligible for the capture cache

	framesServed atomic.Uint64 // .dag frames served to cluster peers

	queueWait latencySeries // submit to worker pickup
	runTime   latencySeries // pickup to completion
}

// The one latency bucket table: log-spaced edges from 1 µs up to about
// 1 h, latencyPerDecade to a decade, so consecutive edges differ by the
// ratio 10^(1/25) ≈ 1.096. Bucket 0 is the underflow [0, 1 µs), bucket i
// is [latencyEdgesMS[i-1], latencyEdgesMS[i]), and bucket latencyEdges
// the overflow from the top edge up. Every series on every worker, tenant
// and coordinator bins on it, so two series merge by adding counts.
const (
	latencyPerDecade = 25
	latencyEdges     = 240 // 10^-3 ms .. 10^6.56 ms ≈ 1.01 h
	latencyBuckets   = latencyEdges + 1
)

var latencyEdgesMS = func() (e [latencyEdges]float64) {
	for k := range e {
		e[k] = math.Pow(10, float64(k-3*latencyPerDecade)/latencyPerDecade)
	}
	return e
}()

// latencyBucket returns the bucket holding ms: the number of edges at or
// below it.
func latencyBucket(ms float64) int {
	return sort.Search(latencyEdges, func(i int) bool { return latencyEdgesMS[i] > ms })
}

// latencyBounds returns bucket i's edges in milliseconds. The underflow
// starts at 0; the overflow ends at maxMS, the largest observation.
func latencyBounds(i int, maxMS float64) (lo, hi float64) {
	if i > 0 {
		lo = latencyEdgesMS[i-1]
	}
	if i < latencyEdges {
		return lo, latencyEdgesMS[i]
	}
	return lo, maxMS
}

// latencySeries is one lifetime latency histogram on the bucket table,
// plus the exact sum and max. observe is lock-free and allocation-free.
type latencySeries struct {
	counts [latencyBuckets]atomic.Uint64
	sumNS  atomic.Uint64
	maxNS  atomic.Uint64
}

// observe records one latency. The max and the sum are written before
// the bucket count that stats reads first, so every counted observation
// is already in both.
func (s *latencySeries) observe(d time.Duration) {
	ns := uint64(max(d, 0))
	for cur := s.maxNS.Load(); ns > cur; cur = s.maxNS.Load() {
		if s.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	s.sumNS.Add(ns)
	s.counts[latencyBucket(float64(ns)/1e6)].Add(1)
}

// stats reads the series into its LatencyStats.
func (s *latencySeries) stats() LatencyStats {
	var h latencyHist
	for i := range s.counts {
		h.counts[i] = s.counts[i].Load()
	}
	h.sumMS = float64(s.sumNS.Load()) / 1e6
	h.maxMS = float64(s.maxNS.Load()) / 1e6
	return h.stats()
}

// latencyHist is a plain copy of a series' bucket counts, sum and max:
// what every LatencyStats, a worker's or a merge's, is computed from.
type latencyHist struct {
	counts       [latencyBuckets]uint64
	sumMS, maxMS float64
}

// MergeLatency merges latency series into one: bins add by their place in
// the bucket table, counts and sums add, the max is the largest. So the
// merge of several servers' series is exactly what one server would report
// had it observed all their samples (the mean up to rounding).
func MergeLatency(series ...LatencyStats) LatencyStats {
	var h latencyHist
	for _, s := range series {
		h.sumMS += s.MeanMS * float64(s.Count)
		h.maxMS = max(h.maxMS, s.MaxMS)
		for _, b := range s.Histogram {
			h.counts[latencyBucket(b.LoMS)] += uint64(b.Count)
		}
	}
	return h.stats()
}

// stats computes count, mean, p50, p95 and max, and lists the non-empty
// buckets. A quantile is interpolated linearly inside the bucket where
// the cumulative count crosses it, so it is off by less than one bucket
// width, and never above the max.
func (h *latencyHist) stats() LatencyStats {
	var out LatencyStats
	for _, n := range h.counts {
		out.Count += n
	}
	if out.Count == 0 {
		return out
	}
	out.MeanMS = h.sumMS / float64(out.Count)
	out.MaxMS = h.maxMS
	out.P50MS = h.quantile(0.50, out.Count)
	out.P95MS = h.quantile(0.95, out.Count)
	for i, n := range h.counts {
		if n > 0 {
			lo, hi := latencyBounds(i, h.maxMS)
			out.Histogram = append(out.Histogram, HistogramBin{LoMS: lo, HiMS: hi, Count: int(n)})
		}
	}
	return out
}

func (h *latencyHist) quantile(q float64, count uint64) float64 {
	target := q * float64(count)
	cum := 0.0
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		if next := cum + float64(n); next >= target {
			lo, hi := latencyBounds(i, h.maxMS)
			return min(lo+(target-cum)/float64(n)*(hi-lo), h.maxMS)
		}
		cum += float64(n)
	}
	return h.maxMS
}

// LatencyStats is the JSON form of one latency series, in milliseconds.
// It covers the server's whole lifetime: Count, the mean and the max are
// exact, p50 and p95 are read off the histogram. The histogram lists the
// non-empty buckets of one fixed log-spaced table (1 µs to about 1 h, 25
// buckets to a decade, an underflow from 0 and an overflow up to the max)
// shared by every server, tenant and coordinator, so series merge exactly
// (MergeLatency), and the latencies of a window are the bin-wise
// difference of the snapshots taken before and after it.
type LatencyStats struct {
	Count     uint64         `json:"count"`
	MeanMS    float64        `json:"mean_ms"`
	P50MS     float64        `json:"p50_ms"`
	P95MS     float64        `json:"p95_ms"`
	MaxMS     float64        `json:"max_ms"`
	Histogram []HistogramBin `json:"histogram,omitempty"`
}

// HistogramBin is one non-empty bucket of a latency histogram.
type HistogramBin struct {
	LoMS  float64 `json:"lo_ms"`
	HiMS  float64 `json:"hi_ms"`
	Count int     `json:"count"`
}

// JobCounts is the job-lifecycle section of a metrics snapshot.
type JobCounts struct {
	Submitted   uint64 `json:"submitted"`
	Queued      int    `json:"queued"`
	Running     int64  `json:"running"`
	Done        uint64 `json:"done"`
	Failed      uint64 `json:"failed"`
	Dead        uint64 `json:"dead"`
	Rejected    uint64 `json:"rejected"`
	RateLimited uint64 `json:"rate_limited"`
	Retries     uint64 `json:"retries"`
}

// CacheStats is the capture-cache section of a metrics snapshot. The Disk*
// fields cover the persistent level under -data-dir: DiskHits counts jobs
// served from a .dag frame without re-capturing (memory misses resolved on
// disk), DiskWrites counts frames published, DiskDrops counts corrupt or
// unreadable frames discarded (each downgraded to a re-capture). All zero
// on a memory-only server.
type CacheStats struct {
	Hits       uint64 `json:"hits"`
	DiskHits   uint64 `json:"disk_hits,omitempty"`
	PeerHits   uint64 `json:"peer_hits,omitempty"` // jobs served from a frame fetched off a cluster peer
	Misses     uint64 `json:"misses"`
	Bypass     uint64 `json:"bypass"`
	Captures   uint64 `json:"captures"`
	Entries    int    `json:"entries"`
	Evictions  uint64 `json:"evictions"`
	DiskWrites uint64 `json:"disk_writes,omitempty"`
	DiskDrops  uint64 `json:"disk_drops,omitempty"`
	// FramesServed counts .dag frames this node served to cluster peers
	// over GET /internal/frames.
	FramesServed uint64 `json:"frames_served,omitempty"`
}

// TenantSnapshot is one tenant's section of a metrics snapshot: lifecycle
// counters, queue occupancy against its share, its queue-wait distribution
// (on the shared bucket table, so tenants compare directly) and its
// capture-cache partition.
type TenantSnapshot struct {
	Name        string       `json:"name"`
	Weight      int          `json:"weight"`
	Queued      int          `json:"queued"`
	MaxQueue    int          `json:"max_queue"`
	Submitted   uint64       `json:"submitted"`
	Done        uint64       `json:"done"`
	Failed      uint64       `json:"failed"`
	Dead        uint64       `json:"dead"`
	Rejected    uint64       `json:"rejected"`
	RateLimited uint64       `json:"rate_limited"`
	Retries     uint64       `json:"retries"`
	QueueWait   LatencyStats `json:"queue_wait"`
	Cache       CacheStats   `json:"cache"`
}

// StoreStats is the journaled-store section of a metrics snapshot.
type StoreStats struct {
	// Durable reports whether a -data-dir store is attached.
	Durable bool `json:"durable"`
	// Seq is the journal's monotone record sequence number.
	Seq uint64 `json:"seq,omitempty"`
	// LogRecords counts records appended since the last compaction.
	LogRecords int `json:"log_records,omitempty"`
	// Compactions counts snapshot+truncate cycles this process ran.
	Compactions uint64 `json:"compactions,omitempty"`
	// Recovered/Restored report what startup recovery found: jobs
	// re-queued for a re-run vs finished jobs restored with results.
	Recovered int `json:"recovered,omitempty"`
	Restored  int `json:"restored,omitempty"`
}

// RegressionStats is the nightly-regression section of a metrics
// snapshot: cron-firing results diffed against their templates' pinned
// baselines (all zero without a -data-dir).
type RegressionStats struct {
	// Baselines counts baseline records established (first firings).
	Baselines uint64 `json:"baselines"`
	// Checks counts later firings compared against a baseline.
	Checks uint64 `json:"checks"`
	// Drifts counts comparisons whose fingerprint diverged.
	Drifts uint64 `json:"drifts"`
}

// MetricsSnapshot is the full /metrics document.
type MetricsSnapshot struct {
	UptimeMS   float64          `json:"uptime_ms"`
	Draining   bool             `json:"draining"`
	Jobs       JobCounts        `json:"jobs"`
	Store      StoreStats       `json:"store"`
	Tenants    []TenantSnapshot `json:"tenants,omitempty"`
	Cache      CacheStats       `json:"cache"`
	Regression RegressionStats  `json:"regression"`
	QueueWait  LatencyStats     `json:"queue_wait"`
	Run        LatencyStats     `json:"run"`
	Contention perf.Snapshot    `json:"contention"`
}
