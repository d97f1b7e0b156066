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
// algorithms, the three runtimes' capture orders and ready policies, every
// duration-model shape and both executors.
func TestMakespanEqualsRunMakespan(t *testing.T) {
	models := []struct {
		name  string
		model core.DurationModel
	}{
		{"fixed", core.FixedModel(1e-3)},
		{"stochastic", jitter{base: 1e-3}},
		{"captured", nil},
	}
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		for _, scheduler := range []string{"quark", "starpu", "ompss"} {
			spec := bench.Spec{Algorithm: alg, Scheduler: scheduler, NT: 9, NB: 8, Workers: 6, Seed: 1}
			dag, err := bench.CaptureSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := range dag.Tasks { // CaptureSpec runs no-op bodies and records no durations
				dag.Tasks[i].Duration = float64(i%11+1) * 1e-4
			}
			arena, err := replay.BuildArena(dag) // the edited view compiled; dag.Arena() is the unedited capture
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

// TestMakespanErrors: Makespan reports what RunArena reports.
func TestMakespanErrors(t *testing.T) {
	dag := &replay.DAG{Label: "nodur", Workers: 1, Tasks: []replay.Task{{Class: "K", Label: "k", Ready: -1, Duration: -1}}}
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
	}
}
