package server

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supersim/internal/replay"
)

func key(nt int) cacheKey {
	return cacheKey{algorithm: "cholesky", scheduler: "quark", nt: nt, nb: 8}
}

// noPeer is the fetch of a job with no frame hint, or whose peer has
// nothing: no bytes.
func noPeer() []byte { return nil }

// oneTaskArena compiles the smallest DAG that has an arena (an empty one
// has none); label tells two of them, and their frames, apart.
func oneTaskArena(t *testing.T, label string) *replay.Arena {
	t.Helper()
	dag := &replay.DAG{Label: label, Workers: 1, Tasks: []replay.Task{{Class: "K", Label: "k", Duration: 1}}}
	arena, err := dag.Arena()
	if err != nil {
		t.Fatal(err)
	}
	return arena
}

// TestCaptureCacheSingleflight checks the dedup guarantee: N concurrent
// requests for one uncached key run exactly one capture, and everyone gets
// the same arena: the one the capture built, which lives in its frame.
func TestCaptureCacheSingleflight(t *testing.T) {
	c := newCaptureCache(4, nil)
	want := oneTaskArena(t, "want")
	var captures atomic.Int64

	const n = 8
	dags := make([]*replay.Arena, n)
	disps := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dag, disp, err := c.get(key(4), noPeer, func() (*replay.Arena, error) {
				captures.Add(1)
				time.Sleep(5 * time.Millisecond) // hold the flight open so waiters pile up
				return want, nil
			})
			if err != nil {
				t.Errorf("get %d: %v", i, err)
			}
			dags[i], disps[i] = dag, disp
		}(i)
	}
	wg.Wait()

	if got := captures.Load(); got != 1 {
		t.Fatalf("capture ran %d times, want exactly 1", got)
	}
	if dags[0] != want || !dags[0].AliasesFrame() {
		t.Fatal("the entry is not the captured arena over its own frame")
	}
	misses := 0
	for i := range dags {
		if dags[i] != dags[0] {
			t.Fatalf("goroutine %d got a different arena", i)
		}
		if disps[i] == cacheMiss {
			misses++
		} else if disps[i] != cacheHit {
			t.Fatalf("goroutine %d reported disposition %q", i, disps[i])
		}
	}
	if misses != 1 {
		t.Fatalf("%d goroutines reported a miss, want exactly 1 (the capturer)", misses)
	}
	if entries, caps, _ := c.stats(); entries != 1 || caps != 1 {
		t.Fatalf("stats: entries=%d captures=%d, want 1/1", entries, caps)
	}
}

// TestCaptureCacheErrorNotCached checks that a failed capture is surfaced
// to its requester but not remembered: the next request retries.
func TestCaptureCacheErrorNotCached(t *testing.T) {
	c := newCaptureCache(4, nil)
	boom := errors.New("boom")
	var calls int

	_, _, err := c.get(key(4), noPeer, func() (*replay.Arena, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("first get: err=%v, want %v", err, boom)
	}
	want := oneTaskArena(t, "want")
	dag, disp, err := c.get(key(4), noPeer, func() (*replay.Arena, error) { calls++; return want, nil })
	if err != nil || dag == nil || !bytes.Equal(dag.Frame(), want.Encode()) || disp != cacheMiss {
		t.Fatalf("retry after failure: dag=%p disp=%q err=%v, want fresh capture", dag, disp, err)
	}
	if calls != 2 {
		t.Fatalf("capture ran %d times, want 2 (failure must not be cached)", calls)
	}
}

// TestCaptureCacheEviction checks LRU eviction: the least-recently-used
// completed entry leaves first, and an evicted key is re-captured.
func TestCaptureCacheEviction(t *testing.T) {
	c := newCaptureCache(2, nil)
	one := oneTaskArena(t, "one")
	cap1 := func() (*replay.Arena, error) { return one, nil }

	c.get(key(1), noPeer, cap1)
	c.get(key(2), noPeer, cap1)
	c.get(key(1), noPeer, cap1) // refresh key(1): key(2) is now LRU
	c.get(key(3), noPeer, cap1) // overflow: evicts key(2)

	if entries, caps, evs := c.stats(); entries != 2 || caps != 3 || evs != 1 {
		t.Fatalf("stats after overflow: entries=%d captures=%d evictions=%d, want 2/3/1", entries, caps, evs)
	}
	if _, disp, _ := c.get(key(1), noPeer, cap1); disp != cacheHit {
		t.Fatal("key(1) was evicted; want the recently-used entry kept")
	}
	if _, disp, _ := c.get(key(2), noPeer, cap1); disp == cacheHit {
		t.Fatal("key(2) still cached; want the LRU entry evicted")
	}
}

// TestCaptureCacheSourceChain walks get's ordered sources — disk, peer,
// capture — through every state each can be in. A valid source ends the
// walk and names the disposition; a corrupt or absent one hands over to
// the next; only a corrupt disk frame is removed and counted; every source
// but disk writes its frame through exactly once — a capture's the frame
// its arena was built in, the entry being that arena; whichever source
// filled the entry, its arena's columns lie inside its frame; and what
// frame() serves a peer afterwards, from memory (the entry's own bytes)
// and from disk, is that frame.
func TestCaptureCacheSourceChain(t *testing.T) {
	diskFrame := oneTaskArena(t, "from-disk").Encode()
	peerFrame := oneTaskArena(t, "from-peer").Encode()
	captured := oneTaskArena(t, "captured")
	capturedFrame := captured.Encode()
	corrupt := func(frame []byte) []byte {
		bad := append([]byte(nil), frame...)
		bad[len(bad)/2] ^= 0xff
		return bad
	}
	boom := errors.New("boom")
	count := func(expected bool) uint64 {
		if expected {
			return 1
		}
		return 0
	}

	// A source's state. The capture source is always there: its "corrupt"
	// is a capture run that fails.
	const valid, bad, absent = "valid", "corrupt", "absent"
	for _, tc := range []struct {
		disk, peer, capture string
		disposition         string
		frame               []byte // the entry's frame; nil when get fails
	}{
		{valid, valid, valid, cacheDisk, diskFrame},
		{valid, absent, bad, cacheDisk, diskFrame},
		{bad, valid, valid, cachePeer, peerFrame},
		{absent, valid, valid, cachePeer, peerFrame},
		{bad, bad, valid, cacheMiss, capturedFrame},
		{bad, absent, valid, cacheMiss, capturedFrame},
		{absent, bad, valid, cacheMiss, capturedFrame},
		{absent, absent, valid, cacheMiss, capturedFrame},
		{absent, absent, bad, cacheMiss, nil},
		{bad, bad, bad, cacheMiss, nil},
	} {
		t.Run(tc.disk+"-"+tc.peer+"-"+tc.capture, func(t *testing.T) {
			disk := newDagDisk(t.TempDir())
			k := key(4)
			switch tc.disk {
			case valid:
				disk.write(k, diskFrame)
			case bad:
				disk.write(k, corrupt(diskFrame))
			}
			seeded := disk.writes.Load()
			c := newCaptureCache(4, disk)

			fetch := noPeer
			switch tc.peer {
			case valid:
				fetch = func() []byte { return peerFrame }
			case bad:
				fetch = func() []byte { return corrupt(peerFrame) }
			}
			var captures uint64
			arena, disp, err := c.get(k, fetch, func() (*replay.Arena, error) {
				captures++
				if tc.capture == bad {
					return nil, boom
				}
				return captured, nil
			})

			if disp != tc.disposition {
				t.Errorf("disposition %q, want %q", disp, tc.disposition)
			}
			if want := count(tc.disposition == cacheMiss); captures != want {
				t.Errorf("capture ran %d times, want %d", captures, want)
			}
			if _, counted, _ := c.stats(); counted != captures {
				t.Errorf("captures counter %d, capture ran %d times", counted, captures)
			}
			hits, writes, drops := disk.stats()
			if want := count(tc.disk == bad); drops != want {
				t.Errorf("disk_drops %d, want %d", drops, want)
			}
			if want := count(tc.disposition == cacheDisk); hits != want {
				t.Errorf("disk hits %d, want %d", hits, want)
			}
			onDisk, _ := disk.read(k)

			if tc.frame == nil {
				if !errors.Is(err, boom) || arena != nil {
					t.Fatalf("failed capture: arena=%p err=%v, want nil and %v", arena, err, boom)
				}
				if writes != seeded || len(onDisk) != 0 {
					t.Errorf("failed capture wrote through (%d writes, %d bytes on disk)", writes-seeded, len(onDisk))
				}
				if got := c.frame(k); len(got) != 0 {
					t.Errorf("frame() serves %d bytes after a failed capture", len(got))
				}
				return
			}
			if err != nil || arena == nil {
				t.Fatalf("get: arena=%p err=%v", arena, err)
			}
			if tc.disposition == cacheMiss && arena != captured {
				t.Error("capture source stored another arena than the one the capture built")
			}
			if !arena.AliasesFrame() || !bytes.Equal(arena.Frame(), tc.frame) {
				t.Error("the entry's columns do not lie inside the source's frame")
			}
			if !bytes.Equal(arena.Encode(), tc.frame) {
				t.Error("arena does not encode to the source's frame")
			}
			if want := count(tc.disposition != cacheDisk); writes-seeded != want {
				t.Errorf("%d write-throughs, want %d", writes-seeded, want)
			}
			if !bytes.Equal(onDisk, tc.frame) {
				t.Error("bytes on disk differ from the entry's frame")
			}
			if got := c.frame(k); len(got) == 0 || &got[0] != &arena.Frame()[0] || !bytes.Equal(got, tc.frame) {
				t.Error("frame() from memory is not the entry's own frame")
			}
			if got := newCaptureCache(4, disk).frame(k); !bytes.Equal(got, tc.frame) {
				t.Error("frame() from disk differs from the entry's frame")
			}
			if _, disp, _ := c.get(k, noPeer, nil); disp != cacheHit {
				t.Errorf("second get: disposition %q, want %q", disp, cacheHit)
			}
		})
	}
}

// TestCaptureCacheFrameSkipsInFlight: frame() never waits on a fill in
// progress, and without a disk level below it has nothing to serve.
func TestCaptureCacheFrameSkipsInFlight(t *testing.T) {
	c := newCaptureCache(4, nil)
	arena := oneTaskArena(t, "slow")
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.get(key(4), noPeer, func() (*replay.Arena, error) {
			close(entered)
			<-release
			return arena, nil
		})
	}()
	<-entered
	if got := c.frame(key(4)); got != nil {
		t.Errorf("frame() returned %d bytes for an in-flight entry", len(got))
	}
	close(release)
	<-done
	if got := c.frame(key(4)); !bytes.Equal(got, arena.Encode()) {
		t.Error("frame() after publication differs from the captured arena's encoding")
	}
}
