package core

import (
	"math"
	"testing"

	"supersim/internal/sched"
	"supersim/internal/sched/ompss"
	"supersim/internal/sched/quark"
	"supersim/internal/sched/starpu"
	"supersim/internal/trace"
)

// mustQuark builds a QUARK scheduler for tests that construct runtimes
// outside a *testing.T helper.
func mustQuark(workers int, opts ...quark.Option) *quark.Scheduler {
	q, err := quark.New(workers, opts...)
	if err != nil {
		panic(err)
	}
	return q
}

func newRuntime(t *testing.T, name string, workers int) sched.Runtime {
	t.Helper()
	switch name {
	case "quark":
		q, err := quark.New(workers)
		if err != nil {
			t.Fatalf("quark.New: %v", err)
		}
		return q
	case "ompss":
		o, err := ompss.New(workers)
		if err != nil {
			t.Fatalf("ompss.New: %v", err)
		}
		return o
	case "starpu":
		s, err := starpu.New(starpu.Conf{NCPUs: workers})
		if err != nil {
			t.Fatalf("starpu.New: %v", err)
		}
		return s
	default:
		t.Fatalf("unknown runtime %q", name)
		return nil
	}
}

var allRuntimes = []string{"quark", "starpu", "ompss"}

func TestIndependentTasksPackOntoWorkers(t *testing.T) {
	// 4 workers, 8 independent unit tasks: virtual makespan must be 2.
	for _, rtName := range allRuntimes {
		rt := newRuntime(t, rtName, 4)
		sim := NewSimulator(rt, "sim")
		tk := NewTasker(sim, FixedModel(1.0), 1)
		for i := 0; i < 8; i++ {
			rt.Insert(&sched.Task{Class: "X", Label: "X", Func: tk.SimTask("X")})
		}
		rt.Shutdown()
		tr := sim.Trace()
		if len(tr.Events) != 8 {
			t.Errorf("%s: %d events, want 8", rtName, len(tr.Events))
		}
		if ms := tr.Makespan(); math.Abs(ms-2.0) > 1e-9 {
			t.Errorf("%s: makespan = %g, want 2.0", rtName, ms)
		}
		if v := tr.Validate(); len(v) != 0 {
			t.Errorf("%s: %d trace violations: %+v", rtName, len(v), v[0])
		}
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// A chain of 5 RW-dependent unit tasks takes 5 time units no matter
	// how many workers exist.
	for _, rtName := range allRuntimes {
		rt := newRuntime(t, rtName, 4)
		sim := NewSimulator(rt, "sim")
		tk := NewTasker(sim, FixedModel(1.0), 1)
		h := new(int)
		for i := 0; i < 5; i++ {
			rt.Insert(&sched.Task{Class: "C", Label: "C", Func: tk.SimTask("C"), Args: []sched.Arg{sched.RW(h)}})
		}
		rt.Shutdown()
		if ms := sim.Trace().Makespan(); math.Abs(ms-5.0) > 1e-9 {
			t.Errorf("%s: chain makespan = %g, want 5.0", rtName, ms)
		}
	}
}

func TestForkJoinVirtualTime(t *testing.T) {
	// root(1) -> 3 parallel children(2) -> join(1) on 3 workers:
	// makespan = 1 + 2 + 1 = 4.
	for _, rtName := range allRuntimes {
		rt := newRuntime(t, rtName, 3)
		sim := NewSimulator(rt, "sim")
		durations := ClassMap{"ROOT": 1, "MID": 2, "JOIN": 1}
		tk := NewTasker(sim, durations, 7)
		root := new(int)
		children := []*int{new(int), new(int), new(int)}
		rt.Insert(&sched.Task{Class: "ROOT", Label: "ROOT", Func: tk.SimTask("ROOT"), Args: []sched.Arg{sched.W(root)}})
		for _, c := range children {
			rt.Insert(&sched.Task{Class: "MID", Label: "MID", Func: tk.SimTask("MID"),
				Args: []sched.Arg{sched.R(root), sched.W(c)}})
		}
		joinArgs := []sched.Arg{}
		for _, c := range children {
			joinArgs = append(joinArgs, sched.R(c))
		}
		rt.Insert(&sched.Task{Class: "JOIN", Label: "JOIN", Func: tk.SimTask("JOIN"), Args: joinArgs})
		rt.Shutdown()
		if ms := sim.Trace().Makespan(); math.Abs(ms-4.0) > 1e-9 {
			t.Errorf("%s: fork-join makespan = %g, want 4.0", rtName, ms)
		}
	}
}

func TestClockMonotoneAndEventsOrdered(t *testing.T) {
	rt := mustQuark(4)
	sim := NewSimulator(rt, "sim")
	tk := NewTasker(sim, FixedModel(0.5), 3)
	hs := make([]*int, 6)
	for i := range hs {
		hs[i] = new(int)
	}
	// A small random-ish DAG: task i writes hs[i%6], reads hs[(i+1)%6].
	for i := 0; i < 60; i++ {
		rt.Insert(&sched.Task{Class: "K", Label: "K", Func: tk.SimTask("K"),
			Args: []sched.Arg{sched.W(hs[i%6]), sched.R(hs[(i+1)%6])}})
	}
	rt.Shutdown()
	tr := sim.Trace()
	if len(tr.Events) != 60 {
		t.Fatalf("%d events, want 60", len(tr.Events))
	}
	// Events are appended in completion (pop) order: ends must be
	// non-decreasing — the Task Execution Queue's core guarantee.
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].End+1e-12 < tr.Events[i-1].End {
			t.Fatalf("completion order violated at %d: %g after %g",
				i, tr.Events[i].End, tr.Events[i-1].End)
		}
	}
	if v := tr.Validate(); len(v) != 0 {
		t.Fatalf("trace violations: %+v", v[0])
	}
	if got := sim.Now(); math.Abs(got-tr.Makespan()) > 1e-12 {
		t.Errorf("clock %g != makespan %g", got, tr.Makespan())
	}
}

func TestWaitPolicies(t *testing.T) {
	// Only the quiescence policy guarantees an exact virtual schedule;
	// sleep-yield is probabilistic (paper Section V-E) and none is racy
	// by design, so those two are only checked for completeness and a
	// structurally valid trace.
	for _, policy := range []WaitPolicy{WaitQuiescence, WaitSleepYield, WaitNone} {
		rt := mustQuark(3)
		sim := NewSimulator(rt, "sim", WithWaitPolicy(policy))
		tk := NewTasker(sim, FixedModel(1), 5)
		for i := 0; i < 30; i++ {
			rt.Insert(&sched.Task{Class: "K", Label: "K", Func: tk.SimTask("K")})
		}
		rt.Shutdown()
		if n := len(sim.Trace().Events); n != 30 {
			t.Errorf("policy %v: %d events, want 30", policy, n)
		}
		if v := sim.Trace().Validate(); len(v) != 0 {
			t.Errorf("policy %v: %d trace violations", policy, len(v))
		}
		if policy == WaitQuiescence {
			if ms := sim.Trace().Makespan(); math.Abs(ms-10.0) > 1e-9 {
				t.Errorf("policy %v: makespan = %g, want 10.0", policy, ms)
			}
		}
	}
}

func TestWithoutQueueStillCompletes(t *testing.T) {
	rt := mustQuark(3)
	sim := NewSimulator(rt, "sim", WithoutQueue())
	tk := NewTasker(sim, FixedModel(1), 5)
	h := new(int)
	for i := 0; i < 10; i++ {
		rt.Insert(&sched.Task{Class: "K", Label: "K", Func: tk.SimTask("K"), Args: []sched.Arg{sched.RW(h)}})
	}
	rt.Shutdown()
	if n := len(sim.Trace().Events); n != 10 {
		t.Errorf("%d events, want 10", n)
	}
}

func TestMeasuredTaskUsesWallTime(t *testing.T) {
	rt := mustQuark(2)
	sim := NewSimulator(rt, "measured")
	work := func(*sched.Ctx) {
		// A small but measurable busy loop.
		s := 0.0
		for i := 0; i < 50000; i++ {
			s += float64(i)
		}
		_ = s
	}
	for i := 0; i < 4; i++ {
		rt.Insert(&sched.Task{Class: "W", Label: "W", Func: MeasuredTask(sim, "W", work)})
	}
	rt.Shutdown()
	tr := sim.Trace()
	if len(tr.Events) != 4 {
		t.Fatalf("%d events, want 4", len(tr.Events))
	}
	for _, e := range tr.Events {
		if e.Duration() <= 0 {
			t.Errorf("measured duration %g, want > 0", e.Duration())
		}
	}
}

func TestSampleHookReceivesDurations(t *testing.T) {
	rt := mustQuark(2)
	var got []float64
	sim := NewSimulator(rt, "sim", WithSampleHook(func(class string, worker int, d float64) {
		if class != "K" {
			t.Errorf("hook class %q, want K", class)
		}
		got = append(got, d)
	}))
	tk := NewTasker(sim, FixedModel(2), 5)
	h := new(int)
	for i := 0; i < 5; i++ {
		rt.Insert(&sched.Task{Class: "K", Label: "K", Func: tk.SimTask("K"), Args: []sched.Arg{sched.RW(h)}})
	}
	rt.Shutdown()
	if len(got) != 5 {
		t.Fatalf("hook called %d times, want 5", len(got))
	}
	for _, d := range got {
		if d != 2 {
			t.Errorf("hook duration %g, want 2", d)
		}
	}
}

func TestGangSimTask(t *testing.T) {
	rt := mustQuark(4)
	sim := NewSimulator(rt, "sim")
	tk := NewTasker(sim, FixedModel(4), 5)
	// A 4-thread gang task with perfect efficiency: virtual duration 1.
	rt.Insert(&sched.Task{Class: "PANEL", Label: "PANEL", NumThreads: 4,
		Func: tk.SimGangTask("PANEL", 4, 1.0)})
	rt.Shutdown()
	tr := sim.Trace()
	if len(tr.Events) != 1 {
		t.Fatalf("%d events, want 1", len(tr.Events))
	}
	if d := tr.Events[0].Duration(); math.Abs(d-1.0) > 1e-9 {
		t.Errorf("gang duration %g, want 1.0", d)
	}
}

func TestMaxInFlightBounded(t *testing.T) {
	rt := mustQuark(4)
	sim := NewSimulator(rt, "sim")
	tk := NewTasker(sim, FixedModel(1), 5)
	for i := 0; i < 40; i++ {
		rt.Insert(&sched.Task{Class: "K", Label: "K", Func: tk.SimTask("K")})
	}
	rt.Shutdown()
	if m := sim.MaxInFlight(); m < 1 || m > 4 {
		t.Errorf("MaxInFlight = %d, want in [1, 4]", m)
	}
}

func TestWithoutQueueDistortsParallelOverlap(t *testing.T) {
	// The reason the Task Execution Queue exists (Section V): without it,
	// tasks record and return in wall-clock order, so two independent
	// tasks that should overlap on two virtual cores serialize on the
	// virtual timeline instead. A (10s) and B (1s) should give makespan
	// 10; the no-queue ablation yields 11 because whichever task records
	// first advances the clock past the other's true start.
	model := ClassMap{"A": 10, "B": 1}
	run := func(opts ...Option) float64 {
		rt := mustQuark(2)
		sim := NewSimulator(rt, "x", opts...)
		tk := NewTasker(sim, model, 1)
		rt.Insert(&sched.Task{Class: "A", Label: "A", Func: tk.SimTask("A")})
		rt.Insert(&sched.Task{Class: "B", Label: "B", Func: tk.SimTask("B")})
		rt.Shutdown()
		return sim.Trace().Makespan()
	}
	if ms := run(); math.Abs(ms-10) > 1e-9 {
		t.Errorf("with queue: makespan %g, want 10", ms)
	}
	if ms := run(WithoutQueue()); math.Abs(ms-11) > 1e-9 {
		t.Errorf("without queue: makespan %g, want 11 (serialized)", ms)
	}
}

// TestMergePlacesByStampOnBothPaths drives mergeLocked through its two
// forms on hand-filled lanes: with a stamp issued but not yet deposited (a
// mid-run diagnostic merge) it appends the contiguous prefix and stages the
// rest; once the straggler arrives the staged events follow it; and when the
// lanes hold every outstanding stamp — the state after a barrier — events go
// straight to their slots. Either way Events[i] is the event stamped i.
func TestMergePlacesByStampOnBothPaths(t *testing.T) {
	rt := mustQuark(3)
	defer rt.Shutdown()
	s := NewSimulator(rt, "merge")
	deposit := func(lane int, stamps ...uint64) {
		for _, st := range stamps {
			s.lanes[lane].events = append(s.lanes[lane].events,
				stampedEvent{order: st, ev: trace.Event{Worker: lane, TaskID: int(st)}})
		}
	}
	merge := func(wantMerged, wantStaged int) {
		t.Helper()
		s.mu.Lock()
		s.mergeLocked()
		s.mu.Unlock()
		if len(s.trace.Events) != wantMerged || s.merged != uint64(wantMerged) || len(s.staging) != wantStaged {
			t.Fatalf("merged %d events (counter %d) and staged %d, want %d and %d",
				len(s.trace.Events), s.merged, len(s.staging), wantMerged, wantStaged)
		}
		for i, e := range s.trace.Events {
			if e.TaskID != i {
				t.Fatalf("Events[%d] carries stamp %d", i, e.TaskID)
			}
		}
		for i := range s.lanes {
			if n := len(s.lanes[i].events); n != 0 {
				t.Fatalf("lane %d still holds %d events after a merge", i, n)
			}
		}
	}

	s.done = 6 // stamps 0..5 issued, 3 still between the queue pop and its deposit
	deposit(0, 1, 4)
	deposit(2, 0, 2, 5)
	merge(3, 2)
	deposit(1, 3)
	merge(6, 0)
	s.done = 11
	deposit(1, 7, 10)
	deposit(0, 6, 8)
	deposit(2, 9)
	merge(11, 0)
	merge(11, 0) // nothing pending: a no-op
}
