package sched

import (
	"runtime"
	"testing"
)

// insertAllocCeiling bounds the average heap allocations of one
// Engine.Insert with a single read argument: the Task and its Args slice
// (both built by the caller, both escaping), plus amortized growth of the
// engine's bookkeeping. The hazard tracker itself must not allocate per
// call (scratch buffers are reused).
const insertAllocCeiling = 4

// churnAllocCeiling bounds the full insert+execute+complete cycle of a
// no-arg task: the caller's Task plus amortized bookkeeping. Task contexts
// are pooled, so execution itself must not add a per-task allocation.
const churnAllocCeiling = 2

func TestInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := mustEngine(Config{Workers: 2, Policy: NewFIFOPolicy()})
	// Park one writer task in a worker so the measured inserts only pay
	// for insertion (their RaW hazard on the gate keeps them unreleased,
	// and the idle worker allocates nothing while the loop runs).
	gate := make(chan struct{})
	h := new(int)
	if err := e.Insert(&Task{Class: "gate", Func: func(*Ctx) { <-gate }, Args: []Arg{W(h)}}); err != nil {
		t.Fatalf("gate insert: %v", err)
	}
	f := func(*Ctx) {}
	avg := testing.AllocsPerRun(500, func() {
		if err := e.Insert(&Task{Class: "K", Func: f, Args: []Arg{R(h)}}); err != nil {
			t.Errorf("insert: %v", err)
		}
	})
	close(gate)
	e.Shutdown()
	if avg > insertAllocCeiling {
		t.Errorf("Engine.Insert allocates %.1f objects/op, ceiling %d", avg, insertAllocCeiling)
	}
}

func TestTaskChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("allocation calibration is slow")
	}
	e := mustEngine(Config{Workers: 4, Policy: NewFIFOPolicy(), Window: benchWindow})
	noop := func(*Ctx) {}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Insert(&Task{Class: "K", Func: noop})
		}
		e.Barrier()
	})
	e.Shutdown()
	if a := res.AllocsPerOp(); a > churnAllocCeiling {
		t.Errorf("task churn allocates %d objects/op, ceiling %d (%s)",
			a, churnAllocCeiling, res.MemString())
	}
}

// recycledRunAllocCeiling bounds the heap objects per task of a whole run
// (NewEngine, Insert, execution, Shutdown) on an engine that took its
// insertion scratch from the engine before it: what is left is the
// engine's own set-up and the chunks of handle ids, a few dozen objects
// per run, not per task.
const recycledRunAllocCeiling = 0.05

func TestRecycledEngineAllocatesNothingPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// One P: a sync.Pool hands a Get the value the same P put last.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const tasks = 2000
	handles := make([]*int, 16)
	for i := range handles {
		handles[i] = new(int)
	}
	noop := func(*Ctx) {}
	var runs [2][]Task // the warm-up run's stream, then the measured one's
	for r := range runs {
		runs[r] = make([]Task, tasks)
		for i := range runs[r] {
			runs[r][i] = Task{Class: "GEMM", Func: noop, Args: []Arg{
				RW(handles[i%16]), R(handles[(i+5)%16]), R(handles[(i+11)%16]),
			}}
		}
	}
	run := 0
	objects := testing.AllocsPerRun(1, func() {
		e := mustEngine(Config{Workers: 1, Policy: NewFIFOPolicy()})
		for i := range runs[run] {
			if err := e.Insert(&runs[run][i]); err != nil {
				t.Fatal(err)
			}
		}
		e.Shutdown()
		run++
	})
	t.Logf("%.0f objects over %d tasks", objects, tasks)
	if perTask := objects / tasks; perTask > recycledRunAllocCeiling {
		t.Errorf("a run on a recycled engine allocates %.0f objects, %.3f per task; ceiling %.2f", objects, perTask, recycledRunAllocCeiling)
	}
}
