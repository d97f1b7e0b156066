package server

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"supersim/internal/bench"
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

// runJobSpec submits spec and waits for it to finish.
func runJobSpec(t *testing.T, srv *Server, spec JobSpec) JobView {
	t.Helper()
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFinished(t, job, 60*time.Second)
	return job.view()
}

// TestSweepHonoursPolicy: a sweep captures and replays under the spec's
// policy, so each of its points is the simulate job of that policy at the
// point's nt. StarPU's prio and eager curves differ at this size, so a sweep
// that dropped the policy would read the eager curve.
func TestSweepHonoursPolicy(t *testing.T) {
	srv := newTestServer(t, Config{Pool: 1})
	sweep := func(policy string) []bench.SweepPoint {
		v := runJobSpec(t, srv, JobSpec{Kind: "sweep", Algorithm: "cholesky", Scheduler: "starpu", Policy: policy, MaxNT: 10, NB: 8, Workers: 8, Seed: 4})
		if v.Status != StatusDone {
			t.Fatalf("%s sweep %s: %s", policy, v.Status, v.Error)
		}
		return v.Result.Sweep
	}
	prio, eager := sweep("prio"), sweep("eager")
	differ := false
	for i, p := range prio {
		v := runJobSpec(t, srv, JobSpec{Algorithm: "cholesky", Scheduler: "starpu", Policy: "prio", NT: p.NT, NB: 8, Workers: 8, Seed: 4})
		if v.Status != StatusDone {
			t.Fatalf("simulate nt=%d %s: %s", p.NT, v.Status, v.Error)
		}
		if p.Makespans[0] != v.Result.Makespan {
			t.Errorf("prio sweep nt=%d makespan %g, prio simulate job %g", p.NT, p.Makespans[0], v.Result.Makespan)
		}
		differ = differ || eager[i].Makespans[0] != p.Makespans[0]
	}
	if !differ {
		t.Error("prio and eager sweeps agree at every point: the test no longer tells them apart")
	}
}

// TestSweepStopsAtDeadline: a sweep checks its job's deadline before every
// capture and replay, so one far too large for its deadline fails part-way
// instead of finishing first and failing after.
func TestSweepStopsAtDeadline(t *testing.T) {
	srv := newTestServer(t, Config{Pool: 1})
	v := runJobSpec(t, srv, JobSpec{Kind: "sweep", Algorithm: "cholesky", MaxNT: 64, NB: 8, Workers: 4, DeadlineMS: 50})
	if v.Status != StatusFailed || !strings.Contains(v.Error, "deadline exceeded") || !strings.Contains(v.Error, "sweep stopped before") {
		t.Fatalf("sweep past its deadline ended %s: %q, want failed part-way with a deadline error", v.Status, v.Error)
	}
}

// TestCachedSeedFreeRepsReplayOnce: under the service's constant models
// every repetition of a cached job is rep 0's replay, so a reps > 1 job
// carries rep 0's makespan in every slot and the reps = 1 job's identity.
func TestCachedSeedFreeRepsReplayOnce(t *testing.T) {
	srv := newTestServer(t, Config{Pool: 1})
	spec := JobSpec{Algorithm: "qr", NT: 4, NB: 8, Workers: 3, Seed: 8, Model: &ModelSpec{Fixed: 2e-3, Classes: map[string]float64{"DGEQRT": 5e-3}}}
	one := runJobSpec(t, srv, spec)
	spec.Reps = 4
	four := runJobSpec(t, srv, spec)
	if one.Status != StatusDone || four.Status != StatusDone {
		t.Fatalf("jobs ended %s / %s: %s %s", one.Status, four.Status, one.Error, four.Error)
	}
	if four.Result.Fingerprint != one.Result.Fingerprint || len(four.Result.Makespans) != 4 {
		t.Fatalf("reps 4 result %+v, reps 1 %+v", four.Result, one.Result)
	}
	for rep, ms := range four.Result.Makespans {
		if ms != one.Result.Makespan {
			t.Errorf("rep %d makespan %g, rep 0 %g", rep, ms, one.Result.Makespan)
		}
	}
}
