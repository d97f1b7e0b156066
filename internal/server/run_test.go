package server

import (
	"runtime"
	"testing"
	"time"
)

// TestGoldenResultFingerprints pins the two result digests that are folds
// over makespans (internal/bench's TestGoldenFingerprints pins the third,
// the trace digest of cached jobs) as absolute constants: a direct
// (no_cache) job's and a sweep's. The values were produced by the simd
// binary of the commit before the two folds were merged into one.
func TestGoldenResultFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("constants are from amd64; targets that fuse multiply-add may round sampled durations differently")
	}
	f := false
	srv := newTestServer(t, Config{Pool: 1})
	for _, tc := range []struct {
		name, want string
		spec       JobSpec
	}{
		// One worker: the real scheduler's makespan does not depend on which
		// goroutine wins a task.
		{"direct", "95dd60dcfe869fba", JobSpec{Algorithm: "lu", NT: 3, NB: 8, Workers: 1, Seed: 3, NoCache: true, Trace: &f}},
		{"sweep", "8a07d828c4047c4c", JobSpec{Kind: "sweep", Algorithm: "cholesky", MaxNT: 4, NB: 8, Workers: 2, Seed: 5, Reps: 2}},
	} {
		job, err := srv.Submit(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
			t.Fatalf("%s finished %q: %s", tc.name, st, job.view().Error)
		}
		if got := job.view().Result.Fingerprint; got != tc.want {
			t.Errorf("%s fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}
