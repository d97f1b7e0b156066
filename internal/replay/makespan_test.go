package replay_test

import (
	"fmt"
	"math"
	"testing"

	"supersim/internal/bench"
	"supersim/internal/core"
	"supersim/internal/replay"
)

// TestMakespanEqualsRunMakespan pins replay.Makespan's contract: for every
// Options value it returns the bits RunArena(...).Makespan() returns — the
// serial executor's final clock is the maximum completion time, which is
// what the trace method folds out of the events — across the three
// algorithms, the three runtimes' ready policies, every duration-model
// shape and both executors.
func TestMakespanEqualsRunMakespan(t *testing.T) {
	models := []struct {
		name  string
		model core.DurationModel
	}{
		{"fixed", core.FixedModel(1e-3)},
		{"stochastic", jitter{base: 1e-3}},
		{"per-class", perClass{}},
	}
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		for _, scheduler := range []string{"quark", "starpu", "ompss"} {
			spec := bench.Spec{Algorithm: alg, Scheduler: scheduler, NT: 9, NB: 8, Workers: 6, Seed: 1}
			arena, err := bench.CaptureArena(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range models {
				for _, parallelism := range []int{0, 1} {
					for seed := uint64(1); seed <= 3; seed++ {
						opt := replay.Options{
							Workers: 5, Model: m.model, Seed: seed, Parallelism: parallelism,
							IgnorePriorities: bench.ReplayIgnoresPriorities(spec),
						}
						name := fmt.Sprintf("%s/%s/%s/p%d/seed%d", alg, scheduler, m.name, parallelism, seed)
						tr, err := replay.RunArena(arena, opt)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got, err := replay.Makespan(arena, opt)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if want := tr.Makespan(); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%s: Makespan %v (%#x), Run(...).Makespan() %v (%#x)",
								name, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestDigestEqualsRunArena pins replay.Digest's contract the same way: the
// makespan and the fingerprint it folds while the loop runs are, bit for
// bit, those of the trace RunArena builds — over the golden captures (the
// three algorithms under each runtime, the specs whose absolute
// fingerprints bench.TestGoldenFingerprints holds), both ready orders, a
// sampled model and a seed-free per-class one, worker counts from one to
// more than the graph is wide, and both executors.
func TestDigestEqualsRunArena(t *testing.T) {
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		for _, sp := range []struct{ scheduler, policy string }{{"quark", ""}, {"starpu", "prio"}, {"ompss", ""}} {
			spec := bench.Spec{Algorithm: alg, Scheduler: sp.scheduler, Policy: sp.policy, NT: 6, NB: 8, Workers: 4, Seed: 1}
			arena, err := bench.CaptureArena(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range []core.DurationModel{jitter{base: 1e-3}, perClass{}} {
				for _, fifo := range []bool{false, true} {
					for _, workers := range []int{1, 3, 4, 64} {
						for _, parallelism := range []int{0, 1} {
							opt := replay.Options{Workers: workers, Model: model, Seed: 42, IgnorePriorities: fifo, Parallelism: parallelism}
							name := fmt.Sprintf("%s/%s/%T/fifo=%v/w%d/p%d", alg, sp.scheduler, model, fifo, workers, parallelism)
							tr, err := replay.RunArena(arena, opt)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							ms, fp, err := replay.Digest(arena, opt)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if fp != tr.Fingerprint() || math.Float64bits(ms) != math.Float64bits(tr.Makespan()) {
								t.Errorf("%s: Digest = (%v, %#x), RunArena's trace has (%v, %#x)", name, ms, fp, tr.Makespan(), tr.Fingerprint())
							}
						}
					}
				}
			}
		}
	}
}

// TestMakespanErrors: Makespan and Digest report what RunArena reports —
// here, a replay given no model.
func TestMakespanErrors(t *testing.T) {
	dag := &replay.DAG{Label: "nomodel", Workers: 1, Tasks: []replay.Task{{Class: "K", Label: "k"}}}
	arena, err := dag.Arena()
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{0, 1} {
		if _, err := replay.Makespan(nil, replay.Options{Parallelism: parallelism}); err == nil {
			t.Errorf("p=%d: no arena: no error", parallelism)
		}
		_, runErr := replay.RunArena(arena, replay.Options{Parallelism: parallelism})
		_, err := replay.Makespan(arena, replay.Options{Parallelism: parallelism})
		if runErr == nil || err == nil || err.Error() != runErr.Error() {
			t.Errorf("p=%d: Makespan error %v, Run error %v", parallelism, err, runErr)
		}
		if _, _, err := replay.Digest(nil, replay.Options{Parallelism: parallelism}); err == nil {
			t.Errorf("p=%d: Digest of no arena: no error", parallelism)
		}
		if _, _, err := replay.Digest(arena, replay.Options{Parallelism: parallelism}); err == nil || err.Error() != runErr.Error() {
			t.Errorf("p=%d: Digest error %v, Run error %v", parallelism, err, runErr)
		}
	}
}
