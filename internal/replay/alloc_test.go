package replay

import (
	"testing"

	"supersim/internal/core"
)

// serialRunAllocCeiling bounds the steady-state heap allocations of one
// serial replay.Run at the arena floor: the returned trace header and its
// event buffer — two allocations — and nothing else. The DAG compiles to
// a memoized struct-of-arrays arena (arena.go) holding every column and
// CSR view, the per-run scratch is pooled, and the Options stay on the
// caller's stack, so the executor itself allocates zero. (History: 89
// allocs/op before PR 7's pooling, 4 before the arena.)
const serialRunAllocCeiling = 2

func TestSerialRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("allocation calibration is slow")
	}
	dag, _ := captureRun(t, core.FixedModel(1e-3), 7)
	// Hoist the interface conversion: boxing jitterModel per iteration
	// would bill the benchmark loop, not Run, for an allocation.
	var model core.DurationModel = jitterModel{base: 1e-3}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(dag, Options{Workers: 4, Model: model, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if a := res.AllocsPerOp(); a > serialRunAllocCeiling {
		t.Errorf("serial replay.Run allocates %d objects/op, ceiling %d (%s)",
			a, serialRunAllocCeiling, res.MemString())
	}
}

// makespanAllocCeiling bounds a steady-state serial replay.Makespan: it is
// the same loop with no trace to return, so nothing at all.
const makespanAllocCeiling = 0

func TestMakespanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("allocation calibration is slow")
	}
	dag, _ := captureRun(t, core.FixedModel(1e-3), 7)
	arena, err := dag.Arena()
	if err != nil {
		t.Fatal(err)
	}
	var model core.DurationModel = jitterModel{base: 1e-3}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Makespan(arena, Options{Workers: 4, Model: model, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if a := res.AllocsPerOp(); a > makespanAllocCeiling {
		t.Errorf("serial replay.Makespan allocates %d objects/op, ceiling %d (%s)",
			a, makespanAllocCeiling, res.MemString())
	}
}

// digestAllocCeiling bounds a steady-state serial replay.Digest: the
// Makespan loop plus a hash state on the caller's stack, so again nothing —
// the point of digesting a run instead of fingerprinting its trace.
const digestAllocCeiling = 0

func TestDigestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("allocation calibration is slow")
	}
	dag, _ := captureRun(t, core.FixedModel(1e-3), 7)
	arena, err := dag.Arena()
	if err != nil {
		t.Fatal(err)
	}
	var model core.DurationModel = jitterModel{base: 1e-3}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Digest(arena, Options{Workers: 4, Model: model, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if a := res.AllocsPerOp(); a > digestAllocCeiling {
		t.Errorf("serial replay.Digest allocates %d objects/op, ceiling %d (%s)",
			a, digestAllocCeiling, res.MemString())
	}
}

// pdesRunAllocCeiling bounds the serial-execution PDES path (Parallelism
// >= 1 below the crossover) at the same arena floor: the plan is pooled,
// derives the rank into its own slices and aliases the arena's edge views,
// so per op it is again exactly the returned trace.
const pdesRunAllocCeiling = 2

func TestPDESSerialPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("allocation calibration is slow")
	}
	dag, _ := captureRun(t, core.FixedModel(1e-3), 7)
	var model core.DurationModel = jitterModel{base: 1e-3}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(dag, Options{Workers: 4, Model: model, Seed: uint64(i), Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if a := res.AllocsPerOp(); a > pdesRunAllocCeiling {
		t.Errorf("PDES serial-path replay.Run allocates %d objects/op, ceiling %d (%s)",
			a, pdesRunAllocCeiling, res.MemString())
	}
}
