package factor

import (
	"errors"
	"testing"

	"supersim/internal/core"
	"supersim/internal/sched"
	"supersim/internal/sched/starpu"
	"supersim/internal/tile"
	"supersim/internal/workload"
)

// Scheduled execution must be bit-identical to sequential execution: the
// hazard analysis serializes every pair of tasks that touch the same tile
// with a write, so the floating-point operation order per tile is fixed
// regardless of which interleaving the scheduler picks. This is the
// strongest possible check that the runtimes enforce exactly the
// dependences the superscalar model promises.
func TestScheduledExecutionBitIdenticalToSequential(t *testing.T) {
	nt, nb := 5, 8
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		// Sequential reference.
		seqA, seqT := workload.ForAlgorithm(alg, nt, nb, 77)
		ops, err := Stream(alg, seqA, seqT)
		if err != nil {
			t.Fatal(err)
		}
		if err := RunSequential(ops); err != nil {
			t.Fatalf("%s sequential: %v", alg, err)
		}
		for trial := 0; trial < 3; trial++ {
			for _, rtName := range []string{"quark", "starpu", "ompss"} {
				a, tm := workload.ForAlgorithm(alg, nt, nb, 77)
				ops, err := Stream(alg, a, tm)
				if err != nil {
					t.Fatal(err)
				}
				var sinkErr error
				switch rtName {
				case "quark":
					q := mustQuark(4)
					sink := InsertReal(q, ops)
					q.Shutdown()
					sinkErr = sink.Err()
				case "starpu":
					s, err := starpu.New(starpu.Conf{NCPUs: 4, Policy: starpu.PolicyWS})
					if err != nil {
						t.Fatal(err)
					}
					sink := InsertReal(s, ops)
					s.Shutdown()
					sinkErr = sink.Err()
				case "ompss":
					o := mustOmpSs(4)
					sink := InsertReal(o, ops)
					o.Shutdown()
					sinkErr = sink.Err()
				}
				if sinkErr != nil {
					t.Fatalf("%s on %s: %v", alg, rtName, sinkErr)
				}
				if d := a.MaxAbsDiff(seqA); d != 0 {
					t.Errorf("%s on %s (trial %d): scheduled result differs from sequential by %g",
						alg, rtName, trial, d)
				}
				if tm != nil {
					if d := tm.MaxAbsDiff(seqT); d != 0 {
						t.Errorf("%s on %s (trial %d): T factors differ by %g",
							alg, rtName, trial, d)
					}
				}
			}
		}
	}
}

// The same property must hold under measured-mode simulation (the bodies
// still execute; only the timeline accounting is added).
func TestMeasuredModePreservesNumerics(t *testing.T) {
	nt, nb := 4, 8
	seqA, seqT := workload.ForAlgorithm("qr", nt, nb, 99)
	ops, err := Stream("qr", seqA, seqT)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunSequential(ops); err != nil {
		t.Fatal(err)
	}
	a := workload.RandomGeneral(nt, nb, 99)
	tm := tile.NewMatrix(nt, nb)
	q := mustQuark(3)
	sim := newTestSimulator(q)
	sink := InsertMeasured(q, sim, QR(a, tm))
	q.Shutdown()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if d := a.MaxAbsDiff(seqA); d != 0 {
		t.Errorf("measured-mode result differs from sequential by %g", d)
	}
}

// newTestSimulator builds a measured-mode simulator for tests.
func newTestSimulator(rt sched.Runtime) *core.Simulator {
	return core.NewSimulator(rt, "test")
}

// Insert is the one Op → sched.Task mapping: the body only adds what the op
// does not determine, and a rejected task ends the insertion with its error.
func TestInsertMapsOpsAndStopsAtRejection(t *testing.T) {
	a, _ := workload.Shapes("cholesky", 3, 4)
	ops := Cholesky(a)
	q := mustQuark(2)
	var seen []*sched.Task
	err := Insert(q, nil, ops, func(op *Op, task *sched.Task) {
		seen = append(seen, task)
		task.NumThreads = 2
		task.Func = func(*sched.Ctx) {}
	})
	q.Shutdown()
	if err != nil || len(seen) != len(ops) {
		t.Fatalf("inserted %d of %d ops, err %v", len(seen), len(ops), err)
	}
	for i, task := range seen {
		op := ops[i]
		if task.Class != string(op.Class) || task.Label != op.Label() ||
			task.Priority != op.Priority || len(task.Args) != len(op.Args) {
			t.Errorf("op %d %s mapped to %+v", i, op, task)
		}
	}

	// q is shut down: the first task is rejected and nothing after it tried.
	calls := 0
	err = Insert(q, nil, ops, func(_ *Op, task *sched.Task) {
		calls++
		task.Func = func(*sched.Ctx) {}
	})
	if !errors.Is(err, sched.ErrShutdown) || calls != 1 {
		t.Errorf("after shutdown: err %v after %d tasks, want ErrShutdown after 1", err, calls)
	}
}

// A Buffers hands its memory out again after Reset, zeroed: a recycled task
// reaches the body as a fresh one would, with nothing an earlier body or
// engine wrote into it, and a recycled stream equals a freshly built one.
func TestBuffersRecycleZeroed(t *testing.T) {
	a, _ := workload.Shapes("cholesky", 4, 4)
	fresh := Cholesky(a)
	var buf Buffers
	run := func(body func(*sched.Task)) []*sched.Task {
		ops, err := buf.Stream("cholesky", a, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ops {
			if ops[i].String() != fresh[i].String() || ops[i].Priority != fresh[i].Priority {
				t.Fatalf("op %d from the buffers is %s, fresh %s", i, ops[i], fresh[i])
			}
		}
		q := mustQuark(1)
		var seen []*sched.Task
		err = buf.Insert(q, nil, ops, func(_ *Op, task *sched.Task) {
			if task.ID() != 0 || task.Affinity() != 0 || task.NumThreads != 0 || task.Slowdown != 0 || task.Func != nil {
				t.Errorf("task %s reaches the body carrying id %d, affinity %d, %d threads, slowdown %g",
					task.Label, task.ID(), task.Affinity(), task.NumThreads, task.Slowdown)
			}
			seen = append(seen, task)
			body(task)
			task.Func = func(*sched.Ctx) {}
		})
		q.Barrier()
		q.Shutdown()
		if err != nil || len(seen) != len(ops) {
			t.Fatalf("inserted %d of %d ops, err %v", len(seen), len(ops), err)
		}
		return seen
	}
	first := run(func(task *sched.Task) { task.NumThreads, task.Slowdown = 1, 2 })
	buf.Reset()
	second := run(func(*sched.Task) {})
	if first[0] != second[0] {
		t.Errorf("the second run's tasks were allocated afresh, not recycled")
	}
}
