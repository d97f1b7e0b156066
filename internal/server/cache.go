package server

import (
	"sync"

	"supersim/internal/replay"
)

// cacheKey identifies one cache entry. The captured DAG of a tile
// algorithm is a pure function of the op-stream structure — algorithm and
// tile count — and of the scheduler that resolves it (policy and window can
// reorder hazard resolution for runtimes that expose them), never of the
// duration model, the seed or the worker count. Those stay out of the key
// so one capture serves every model/seed/width variation of the same graph.
// The tile size nb is in the key although the frame does not depend on it
// (an op stream names tiles without holding them;
// bench.TestCaptureFrameIndependentOfNB): keys that differ only in nb are
// separate entries, on disk and on the cluster ring, holding equal frames.
// It stays because the entry layout, the route keys and the cache
// dispositions the service benchmarks expect were all built on it.
type cacheKey struct {
	algorithm string
	scheduler string
	policy    string
	nt, nb    int
	window    int
}

// cacheEntry is one singleflight slot: the first requester fills it while
// later requesters block on done, and nothing but use is read before done
// is closed. arena is what replays run, and its Frame() is the .dag
// encoding, the unit that moves between cache levels. Whichever source
// filled the entry, the arena's columns alias that frame: an entry holds
// one frame plus its successor lists.
type cacheEntry struct {
	done  chan struct{}
	arena *replay.Arena
	err   error
	use   uint64 // LRU stamp; only touched with the owning captureCache's mu held
}

// captureCache is the daemon's capture cache: repeated jobs with the same
// key skip the scheduler entirely and replay the cached arena (the PR 4
// fast path). Concurrent requests for an uncached key are deduplicated:
// exactly one goroutine fills the entry, the rest wait for its result.
// With a data dir attached (disk != nil) the working set survives restarts.
type captureCache struct {
	disk *dagDisk // persistent level; nil = memory-only

	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry // guarded-by: mu
	tick    uint64                   // guarded-by: mu — LRU clock
	cap     int

	captures  uint64 // guarded-by: mu — capture runs actually executed
	evictions uint64 // guarded-by: mu
}

func newCaptureCache(capacity int, disk *dagDisk) *captureCache {
	if capacity < 1 {
		capacity = 1
	}
	return &captureCache{entries: make(map[cacheKey]*cacheEntry), cap: capacity, disk: disk}
}

// Cache dispositions, recorded per job and aggregated in /metrics.
const (
	cacheHit    = "hit"    // served from memory (or a concurrent in-flight capture)
	cacheDisk   = "disk"   // served from a persisted .dag frame, no capture run
	cachePeer   = "peer"   // served from a frame fetched off a cluster peer, no capture run
	cacheMiss   = "miss"   // capture executed
	cacheBypass = "bypass" // job ineligible for the capture cache
)

// frameSource is one place below memory an entry can be filled from. fill
// sets arena when the source has the key, err when it failed for good, and
// nothing when the next source should be tried.
type frameSource struct {
	disposition string
	fill        func(e *cacheEntry)
}

// sources lists, in the order they are tried, where a memory miss on key
// is filled from: the tenant's persisted frame, the cluster peer behind
// fetch (nothing when the job carries no hint), a capture run. Bytes from
// either level pass the same replay.Load, the only check a frame gets; a
// disk frame that fails it is removed and the next source replaces it. A
// capture's arena is kept as it comes: its builder wrote the columns in
// place in its frame, so it already is the frame get writes through, and
// the columns were validated as they were built.
func (c *captureCache) sources(key cacheKey, fetch func() []byte, capture func() (*replay.Arena, error)) []frameSource {
	load := func(e *cacheEntry, raw []byte) {
		if arena, err := replay.Load(raw); err == nil {
			e.arena = arena
		}
	}
	return []frameSource{
		{cacheDisk, func(e *cacheEntry) {
			raw, ok := c.disk.read(key)
			if load(e, raw); e.arena != nil {
				c.disk.hits.Add(1)
			} else if ok {
				c.disk.drop(key)
			}
		}},
		{cachePeer, func(e *cacheEntry) { load(e, fetch()) }},
		{cacheMiss, func(e *cacheEntry) {
			c.mu.Lock()
			c.captures++
			c.mu.Unlock()
			e.arena, e.err = capture()
		}},
	}
}

// get returns the arena for key. The disposition reports how the caller
// was served: cacheHit (memory, including waiting on another goroutine's
// in-flight fill) or that of the first source that had the key. The walk
// happens inside the singleflight slot, so concurrent requests never read,
// fetch, validate or capture the same frame twice. Every source but disk
// writes its frame through after publication: persistence is off the
// waiters' critical path and a write failure costs durability, not the
// job. A failed capture is not cached: its waiters receive the error, then
// the entry is removed so a later job can retry.
func (c *captureCache) get(key cacheKey, fetch func() []byte, capture func() (*replay.Arena, error)) (arena *replay.Arena, disposition string, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.tick++
		e.use = c.tick
		c.mu.Unlock()
		<-e.done
		return e.arena, cacheHit, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.tick++
	e.use = c.tick
	c.entries[key] = e
	c.mu.Unlock()

	for _, src := range c.sources(key, fetch, capture) {
		disposition = src.disposition
		if src.fill(e); e.arena != nil || e.err != nil {
			break
		}
	}
	close(e.done)
	c.mu.Lock()
	if e.err != nil {
		// Waiters hold their own pointer to e; removing the map entry only
		// stops future lookups from inheriting the failure.
		delete(c.entries, key)
	} else {
		c.evict()
	}
	c.mu.Unlock()
	if e.err == nil && disposition != cacheDisk {
		c.disk.write(key, e.arena.Frame())
	}
	return e.arena, disposition, e.err
}

// evict removes least-recently-used completed entries until the cache fits
// its capacity. In-flight entries (done not yet closed) are never evicted:
// removing one would let a concurrent identical job start a second
// capture, breaking the dedup guarantee. Caller holds c.mu.
func (c *captureCache) evict() {
	for len(c.entries) > c.cap {
		var victim cacheKey
		var victimUse uint64
		found := false
		for k, e := range c.entries {
			select {
			case <-e.done:
			default:
				continue // in-flight
			}
			if !found || e.use < victimUse {
				victim, victimUse, found = k, e.use, true
			}
		}
		if !found {
			return // everything in flight; retry on a later insert
		}
		delete(c.entries, victim)
		c.evictions++
	}
}

// frame returns the .dag frame for key, for serving to a cluster peer: a
// completed memory entry's own bytes, else the persisted file as it is
// (the receiving peer's replay.Load is the integrity check). An in-flight
// entry is skipped rather than waited on — the peer treats a miss as
// "re-capture yourself", and blocking a frame request on someone else's
// capture would couple two nodes' latencies for no benefit.
func (c *captureCache) frame(key cacheKey) []byte {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		select {
		case <-e.done:
		default:
			ok = false // in-flight
		}
	}
	c.mu.Unlock()
	if ok && e.err == nil {
		return e.arena.Frame()
	}
	raw, _ := c.disk.read(key)
	return raw
}

// stats reports the cache's internal counters (entry count, captures,
// evictions). Hit/miss/bypass accounting lives in metrics: a hit is a
// property of a job, not of the cache lookup alone.
func (c *captureCache) stats() (entries int, captures, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.captures, c.evictions
}
