package replay_test

// Partition-count invariance over real kernel DAGs. This is the external
// face of the PDES determinism guarantee: for any captured
// cholesky/qr/lu graph, any duration model, and any Parallelism value,
// the replayed trace fingerprint is one number — the same property
// bench.SweepParallel gives across shard counts, now inside a single
// replay. (External test package because bench imports replay.)

import (
	"runtime"
	"testing"

	"supersim/internal/bench"
	"supersim/internal/core"
	"supersim/internal/replay"
	"supersim/internal/rng"
	"supersim/internal/sched"
)

// jitter is a stochastic model whose every draw consumes the stream, so
// any divergence in sampling order changes the fingerprint.
type jitter struct{ base float64 }

func (m jitter) Duration(_ string, _ sched.WorkerKind, src *rng.Source) float64 {
	return m.base * (0.5 + src.Float64())
}

// perClass gives each kernel class a constant duration of its own, a
// multiple of 1e-4 picked by a hash of the name, and draws nothing from
// the stream: a seed-free model under which tasks of one class tie.
type perClass struct{}

func (perClass) Duration(class string, _ sched.WorkerKind, _ *rng.Source) float64 {
	h := uint64(0)
	for i := 0; i < len(class); i++ {
		h = 31*h + uint64(class[i])
	}
	return float64(h%11+1) * 1e-4
}

// captureKernel captures one algorithm's DAG at a size big enough to
// clear the PDES crossover.
func captureKernel(t *testing.T, algorithm string, nt int) *replay.Arena {
	t.Helper()
	arena, err := bench.CaptureArena(bench.Spec{
		Algorithm: algorithm, Scheduler: "quark",
		NT: nt, NB: 8, Workers: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if arena.NumTasks() < 1100 {
		t.Fatalf("%s nt=%d captured only %d tasks; too small to exercise the parallel path", algorithm, nt, arena.NumTasks())
	}
	return arena
}

func TestPDESPartitionCountInvariance(t *testing.T) {
	kernels := []struct {
		algorithm string
		nt        int
	}{
		{"cholesky", 20}, // 1540 tasks
		{"qr", 15},       // ~1200 tasks
		{"lu", 15},       // ~1200 tasks
	}
	models := []struct {
		name  string
		model core.DurationModel
	}{
		{"fixed", core.FixedModel(1e-3)},
		{"stochastic", jitter{base: 1e-3}},
		{"per-class", perClass{}},
	}
	parallelisms := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, k := range kernels {
		arena := captureKernel(t, k.algorithm, k.nt)
		for _, m := range models {
			var ref uint64
			for i, p := range parallelisms {
				tr, err := replay.RunArena(arena, replay.Options{
					Model: m.model, Seed: 7, Parallelism: p,
				})
				if err != nil {
					t.Fatalf("%s/%s p=%d: %v", k.algorithm, m.name, p, err)
				}
				if len(tr.Events) != arena.NumTasks() {
					t.Fatalf("%s/%s p=%d: %d events, want %d", k.algorithm, m.name, p, len(tr.Events), arena.NumTasks())
				}
				if i == 0 {
					ref = tr.Fingerprint()
					if v := tr.Validate(); len(v) != 0 {
						t.Fatalf("%s/%s: trace violations: %+v", k.algorithm, m.name, v[0])
					}
					continue
				}
				if got := tr.Fingerprint(); got != ref {
					t.Errorf("%s/%s: fingerprint at parallelism %d is %#x, at parallelism 1 %#x",
						k.algorithm, m.name, p, got, ref)
				}
			}
		}
	}
}

// TestPDESScheduleQuality: the static cyclic schedule is a real parallel
// schedule, not a serialization — on a wide DAG with 8 lanes its makespan
// must beat the 1-lane makespan by a wide margin, and can never beat the
// critical path.
func TestPDESScheduleQuality(t *testing.T) {
	arena := captureKernel(t, "cholesky", 20)
	model := core.FixedModel(1e-3)
	wide, err := replay.RunArena(arena, replay.Options{Workers: 8, Model: model, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := replay.RunArena(arena, replay.Options{Workers: 1, Model: model, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Makespan() >= narrow.Makespan()/2 {
		t.Errorf("8-lane PDES makespan %g is not even 2x better than 1-lane %g", wide.Makespan(), narrow.Makespan())
	}
	// Sanity against the greedy executor: same DAG, same model. The
	// static cyclic schedule pays for partition invariance — it cannot
	// react to which lane frees up first — and lands ~2.5x behind the
	// dynamic greedy schedule on tile Cholesky. That gap is the price of
	// the determinism guarantee; this bound just pins it from drifting
	// into pathology.
	greedy, err := replay.RunArena(arena, replay.Options{Workers: 8, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Makespan() > 4*greedy.Makespan() {
		t.Errorf("PDES makespan %g more than 4x the greedy schedule's %g", wide.Makespan(), greedy.Makespan())
	}
}
