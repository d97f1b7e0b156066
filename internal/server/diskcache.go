package server

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"supersim/internal/journal"
)

// dagDisk is a tenant's persistent capture store: one .dag frame
// (internal/replay codec) per cache key under <data-dir>/dags/<tenant>/
// beside the journal, so a restarted daemon serves repeat jobs without
// re-running the scheduler. It reads, writes and removes bytes and never
// decodes them: captureCache owns singleflight and validation and decides
// when each happens. All methods are nil-receiver safe, so the memory-only
// server (no -data-dir) costs nothing.
//
// Frames are written with journal.WriteFileAtomic: a crash mid-write
// leaves either no file or a complete one, and the codec's CRC framing
// rejects anything torn that slips through, downgrading corruption to a
// re-capture rather than an error.
type dagDisk struct {
	dir string

	hits   atomic.Uint64 // frames the cache read and accepted (it does the counting)
	writes atomic.Uint64 // frames published
	drops  atomic.Uint64 // corrupt frames discarded
}

// newDagDisk opens (creating if needed) a tenant's capture directory and
// removes the temp files of frame writes a crash cut short.
// Returns nil — disabling persistence — when dir is empty or cannot be
// created; the cache degrades to memory-only rather than failing jobs.
func newDagDisk(dir string) *dagDisk {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil
	}
	journal.RemoveTemps(dir)
	return &dagDisk{dir: dir}
}

// pathSafe maps an identifier into the filename-safe alphabet.
func pathSafe(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			return r
		}
		return '_'
	}, s)
}

// path derives the frame filename for one cache key. Every key field
// participates and admission (JobSpec.validate) only lets through values
// pathSafe maps to themselves, so two admitted keys never share a file.
func (d *dagDisk) path(key cacheKey) string {
	name := pathSafe(key.algorithm) + "-" + pathSafe(key.scheduler) + "-" + pathSafe(key.policy) +
		"-nt" + strconv.Itoa(key.nt) + "-nb" + strconv.Itoa(key.nb) + "-w" + strconv.Itoa(key.window) + ".dag"
	return filepath.Join(d.dir, name)
}

// read returns the bytes persisted for key; !ok when no file is readable.
func (d *dagDisk) read(key cacheKey) (raw []byte, ok bool) {
	if d == nil {
		return nil, false
	}
	raw, err := os.ReadFile(d.path(key))
	return raw, err == nil
}

// write publishes an encoded frame for key. Best-effort: a write failure
// costs persistence, not the job — the memory cache still holds the entry.
func (d *dagDisk) write(key cacheKey, raw []byte) {
	if d == nil || len(raw) == 0 {
		return
	}
	if err := journal.WriteFileAtomic(d.path(key), raw, 0o644); err != nil {
		return
	}
	d.writes.Add(1)
}

// drop discards and counts a frame the cache found corrupt.
func (d *dagDisk) drop(key cacheKey) {
	if d == nil {
		return
	}
	d.drops.Add(1)
	os.Remove(d.path(key))
}

// stats reports the persistence counters for /metrics.
func (d *dagDisk) stats() (hits, writes, drops uint64) {
	if d == nil {
		return 0, 0, 0
	}
	return d.hits.Load(), d.writes.Load(), d.drops.Load()
}
