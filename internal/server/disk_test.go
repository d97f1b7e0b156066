package server

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"supersim/internal/replay"
)

// shutdownServer drains srv mid-test so a second instance can reopen the
// same data dir. Shutdown is idempotent (sync.Once), so newTestServer's
// cleanup re-running it later is harmless.
func shutdownServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// diskSpec is the cacheable job these tests replay across restarts.
func diskSpec(seed uint64) JobSpec {
	return JobSpec{Algorithm: "cholesky", NT: 6, NB: 8, Workers: 4, Seed: seed}
}

// runDiskJob submits spec, waits for completion and returns the finished view.
func runDiskJob(t *testing.T, srv *Server, spec JobSpec) JobView {
	t.Helper()
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
		t.Fatalf("job finished %q: %s", st, job.view().Error)
	}
	return job.view()
}

// TestDiskCacheSurvivesRestart pins the PR 9 durability criterion: a
// daemon restarted on the same -data-dir serves a previously-captured job
// from its persisted .dag frame — no re-capture, identical fingerprint.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	srv := newTestServer(t, Config{Pool: 2, DataDir: dir})
	first := runDiskJob(t, srv, diskSpec(11))
	if first.Cache != cacheMiss {
		t.Fatalf("first job cache disposition %q, want %q", first.Cache, cacheMiss)
	}
	// The capture must have been published as a frame beside the journal.
	frames, err := filepath.Glob(filepath.Join(dir, "dags", "*", "*.dag"))
	if err != nil || len(frames) != 1 {
		t.Fatalf("persisted frames %v (err %v), want exactly one", frames, err)
	}
	if m := srv.Metrics(); m.Cache.DiskWrites != 1 {
		t.Fatalf("disk writes %d after capture, want 1", m.Cache.DiskWrites)
	}
	shutdownServer(t, srv)

	// A fresh process on the same data dir: the memory cache is empty, but
	// the identical job must be served from disk without a capture run.
	srv2 := newTestServer(t, Config{Pool: 2, DataDir: dir})
	again := runDiskJob(t, srv2, diskSpec(11))
	if again.Cache != cacheDisk {
		t.Fatalf("post-restart cache disposition %q, want %q", again.Cache, cacheDisk)
	}
	if again.Result.Fingerprint != first.Result.Fingerprint {
		t.Fatalf("disk-served fingerprint %s != captured %s",
			again.Result.Fingerprint, first.Result.Fingerprint)
	}
	m := srv2.Metrics()
	if m.Cache.Captures != 0 {
		t.Fatalf("restarted server ran %d captures, want 0 (disk must serve the repeat)", m.Cache.Captures)
	}
	if m.Cache.DiskHits != 1 {
		t.Fatalf("disk hits %d, want 1", m.Cache.DiskHits)
	}
	// A third submission is a plain memory hit: the disk load warmed the
	// in-memory partition.
	// (The seed is not part of the cache key: one frame serves every seed
	// variation of the same graph.)
	warm := runDiskJob(t, srv2, diskSpec(12))
	if warm.Cache != cacheHit {
		t.Fatalf("warmed cache disposition %q, want %q", warm.Cache, cacheHit)
	}
}

// TestDiskCacheHealsCorruptFrame checks the self-healing path: a torn or
// scribbled frame is rejected by the codec's CRC, deleted, and replaced by
// a fresh capture — the job still succeeds.
func TestDiskCacheHealsCorruptFrame(t *testing.T) {
	dir := t.TempDir()

	srv := newTestServer(t, Config{Pool: 2, DataDir: dir})
	first := runDiskJob(t, srv, diskSpec(7))
	shutdownServer(t, srv)

	frames, _ := filepath.Glob(filepath.Join(dir, "dags", "*", "*.dag"))
	if len(frames) != 1 {
		t.Fatalf("persisted frames %v, want exactly one", frames)
	}
	raw, err := os.ReadFile(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(frames[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := newTestServer(t, Config{Pool: 2, DataDir: dir})
	again := runDiskJob(t, srv2, diskSpec(7))
	if again.Cache != cacheMiss {
		t.Fatalf("corrupt-frame disposition %q, want %q (re-capture)", again.Cache, cacheMiss)
	}
	if again.Result.Fingerprint != first.Result.Fingerprint {
		t.Fatalf("re-captured fingerprint %s != original %s",
			again.Result.Fingerprint, first.Result.Fingerprint)
	}
	m := srv2.Metrics()
	if m.Cache.DiskDrops != 1 {
		t.Fatalf("disk drops %d, want 1 (corrupt frame discarded)", m.Cache.DiskDrops)
	}
	if m.Cache.DiskWrites != 1 {
		t.Fatalf("disk writes %d, want 1 (healed frame republished)", m.Cache.DiskWrites)
	}
	// The healed frame must be valid again.
	raw2, err := os.ReadFile(frames[0])
	if err != nil {
		t.Fatalf("healed frame unreadable: %v", err)
	}
	if len(raw2) != len(raw) {
		t.Fatalf("healed frame is %d bytes, want %d", len(raw2), len(raw))
	}
}

// TestVersion1FrameIsRecaptured: a data dir written before frame format 2
// holds version 1 frames, which also carried a ready order, a thread count
// and a placement mask per task. Load refuses one, so the job that finds
// it on disk takes the corrupt-frame path with no migration code: the
// frame is dropped, the graph recaptured and served as a miss with the
// fingerprint the version 1 frame gave, and the file rewritten as
// version 2. The committed frame and its fingerprint come from a format-1
// simd that captured this spec.
func TestVersion1FrameIsRecaptured(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the fixture's fingerprint is from amd64")
	}
	const wantFingerprint = "28ce3c87f055e78b"
	spec := JobSpec{Algorithm: "cholesky", Scheduler: "quark", NT: 4, NB: 8, Workers: 4, Seed: 3}
	v1, err := os.ReadFile("testdata/v1-dag/cholesky-quark-nt4.dag")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(v1[4:6]); v != 1 {
		t.Fatalf("the fixture is a version %d frame, want 1", v)
	}
	dir := t.TempDir()
	disk := &dagDisk{dir: filepath.Join(dir, "dags", "default")}
	path := disk.path(cacheKey{algorithm: spec.Algorithm, scheduler: spec.Scheduler, nt: spec.NT, nb: spec.NB})
	if err := os.MkdirAll(disk.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	srv := newTestServer(t, Config{Pool: 2, DataDir: dir})
	v := runDiskJob(t, srv, spec)
	if v.Cache != cacheMiss {
		t.Fatalf("a job over a version 1 frame was served %q, want %q (recapture)", v.Cache, cacheMiss)
	}
	if v.Result.Fingerprint != wantFingerprint {
		t.Fatalf("recaptured fingerprint %s, the version 1 frame's %s", v.Result.Fingerprint, wantFingerprint)
	}
	m := srv.Metrics()
	if m.Cache.DiskDrops != 1 || m.Cache.DiskWrites != 1 {
		t.Fatalf("disk drops %d and writes %d, want 1 and 1 (the old frame dropped, the new one written)", m.Cache.DiskDrops, m.Cache.DiskWrites)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("the rewritten frame is unreadable: %v", err)
	}
	if v := binary.LittleEndian.Uint16(raw[4:6]); v != 2 {
		t.Fatalf("the rewritten frame is version %d, want 2", v)
	}
	if _, err := replay.Load(raw); err != nil {
		t.Fatalf("the rewritten frame does not load: %v", err)
	}
}

// TestDiskCacheTenantPartitions checks that tenants persist into disjoint
// directories: one tenant's frames never serve another's jobs.
func TestDiskCacheTenantPartitions(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Pool: 2, DataDir: dir, Tenants: []TenantConfig{
		{Name: "alice", Key: "ka"},
		{Name: "bob", Key: "kb"},
	}}
	srv := newTestServer(t, cfg)
	job, err := srv.submitAs(srv.tenants[0], diskSpec(3), "", clusterHints{})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
		t.Fatalf("job finished %q", st)
	}
	frames, _ := filepath.Glob(filepath.Join(dir, "dags", "*", "*.dag"))
	if len(frames) != 1 || !strings.Contains(frames[0], string(filepath.Separator)+"alice"+string(filepath.Separator)) {
		t.Fatalf("frames %v, want exactly one under dags/alice/", frames)
	}
	shutdownServer(t, srv)

	// Restarted: bob's identical job must capture (alice's frame is not
	// his), then publish into his own partition.
	srv2 := newTestServer(t, cfg)
	job2, err := srv2.submitAs(srv2.tenants[1], diskSpec(3), "", clusterHints{})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st := waitFinished(t, job2, 30*time.Second); st != StatusDone {
		t.Fatalf("job finished %q", st)
	}
	if v := job2.view(); v.Cache != cacheMiss {
		t.Fatalf("cross-tenant disposition %q, want %q", v.Cache, cacheMiss)
	}
	frames, _ = filepath.Glob(filepath.Join(dir, "dags", "*", "*.dag"))
	if len(frames) != 2 {
		t.Fatalf("frames %v, want one per tenant", frames)
	}
}

// TestRestartRemovesLeftoverTempFiles: a daemon killed between a
// WriteFileAtomic's CreateTemp and its Rename leaves the temp file behind,
// beside the frames in <data-dir>/dags/<tenant>/, beside the journal in
// the data dir or beside the cron baselines. A daemon opening the data dir
// removes them, and leaves every other file where it is.
func TestRestartRemovesLeftoverTempFiles(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Config{Pool: 2, DataDir: dir})
	first := runDiskJob(t, srv, diskSpec(11))
	shutdownServer(t, srv)
	frames, err := filepath.Glob(filepath.Join(dir, "dags", "*", "*.dag"))
	if err != nil || len(frames) != 1 {
		t.Fatalf("persisted frames %v (err %v), want exactly one", frames, err)
	}
	dagDir := filepath.Dir(frames[0])
	leftovers := []string{
		frames[0] + ".tmp1234567",
		filepath.Join(dir, "snapshot.json.tmp42"),
		filepath.Join(dir, "baselines", "nightly.json.tmp7"),
	}
	kept := []string{
		filepath.Join(dagDir, "notes.tmp"),
		filepath.Join(dir, "snapshot.json.tmpx"),
	}
	for _, p := range append(append([]string(nil), leftovers...), kept...) {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv2 := newTestServer(t, Config{Pool: 2, DataDir: dir})
	for _, p := range leftovers {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("leftover temp file %s survived the restart (stat: %v)", p, err)
		}
	}
	for _, p := range append(kept, frames[0]) {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s, not a temp file, is gone after the restart: %v", p, err)
		}
	}
	if again := runDiskJob(t, srv2, diskSpec(11)); again.Cache != cacheDisk || again.Result.Fingerprint != first.Result.Fingerprint {
		t.Errorf("after the clean-up the job is served %q with %s, want %q with %s", again.Cache, again.Result.Fingerprint, cacheDisk, first.Result.Fingerprint)
	}
}
