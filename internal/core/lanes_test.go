package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/trace"
)

// jitter draws every duration from the worker's stream, so a trace pins
// the sampling as well as the schedule.
type jitter struct{}

func (jitter) Duration(_ string, _ sched.WorkerKind, src *rng.Source) float64 {
	return 1e-3 * (0.5 + src.Float64())
}

// runLabelled runs n independent simulated tasks labelled prefix<i> on a
// fresh runtime and returns the simulator, its runtime shut down.
func runLabelled(t *testing.T, rtName string, workers, n int, prefix string) *Simulator {
	t.Helper()
	rt := newRuntime(t, rtName, workers)
	sim := NewSimulator(rt, prefix)
	sim.Reserve(n)
	f := NewTasker(sim, jitter{}, 7).SimTask("K")
	for i := 0; i < n; i++ {
		if err := rt.Insert(&sched.Task{Class: "K", Label: fmt.Sprintf("%s%d", prefix, i), Func: f}); err != nil {
			t.Fatal(err)
		}
	}
	rt.Shutdown()
	return sim
}

// poolOnOneP holds the process at one P with the GC off and empties
// lanePool, so what the pool returns afterwards is exactly what this test
// put: a sync.Pool keeps a per-P slot, and a GC clears it.
func poolOnOneP(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
	for lanePool.Get() != nil {
	}
}

// TestRecycledLanesLeaveFinishedTraceIntact: a finished simulator's lanes
// go to the next simulator, which writes its own events into them. The
// first trace must not change — it is a slice of its own, and its events'
// labels belong to its tasks — and a late diagnostic read of the first
// simulator must see its own merged events, not the recycled lanes.
func TestRecycledLanesLeaveFinishedTraceIntact(t *testing.T) {
	poolOnOneP(t)
	a := runLabelled(t, "quark", 4, 300, "a")
	trA := a.Trace()
	want := trace.New(trA.Label, trA.Workers)
	for _, ev := range trA.Events {
		ev.Label = strings.Clone(ev.Label)
		want.Append(ev)
	}
	b := runLabelled(t, "quark", 4, 500, "b")
	reused := 0
	for i := range b.lanes {
		b.lanes[i].mu.Lock()
		if b.lanes[i].box != nil {
			reused++
		}
		b.lanes[i].mu.Unlock()
	}
	if reused == 0 {
		t.Fatal("the second simulator took no lane from the first: nothing was recycled")
	}
	if len(b.Trace().Events) != 500 {
		t.Fatalf("the second run traced %d events, want 500", len(b.Trace().Events))
	}
	if !reflect.DeepEqual(trA.Events, want.Events) || trA.Fingerprint() != want.Fingerprint() {
		t.Fatal("the first simulator's trace changed after a second simulator reused its lanes")
	}
	if got := a.LastEvents(3); !reflect.DeepEqual(got, want.Events[len(want.Events)-3:]) {
		t.Errorf("a late LastEvents of the first simulator reads %+v, want its last merged events", got)
	}
	if s := a.Snapshot(); s.Events != 300 {
		t.Errorf("a late Snapshot of the first simulator counts %d events, want 300", s.Events)
	}
}

// TestPooledLanesAreCleared: a pooled lane must pin no label string of the
// run it came from, so every slot of every lane a finished simulator hands
// back is zero.
func TestPooledLanesAreCleared(t *testing.T) {
	poolOnOneP(t)
	runLabelled(t, "quark", 4, 300, "x").Trace()
	lanes := 0
	for {
		box, _ := lanePool.Get().(*[]stampedEvent)
		if box == nil {
			break
		}
		lanes++
		for i, se := range (*box)[:cap(*box)] {
			if se != (stampedEvent{}) {
				t.Fatalf("slot %d of a pooled lane holds %+v", i, se)
			}
		}
	}
	if lanes == 0 {
		t.Fatal("a clean run handed back no lane")
	}
}

// TestAbortedSimulatorKeepsItsLanes: an aborted run's engine does not join
// its workers, so a task body may still deposit into a lane after Trace;
// its lanes must stay with it. The task holding a worker is released only
// after Trace returned.
func TestAbortedSimulatorKeepsItsLanes(t *testing.T) {
	poolOnOneP(t)
	rt := newRuntime(t, "starpu", 2) // a master that only inserts: the held body is a worker's
	sim := NewSimulator(rt, "aborted")
	sim.Reserve(64)
	tk := NewTasker(sim, jitter{}, 7)
	f := tk.SimTask("K")
	started, hold := make(chan struct{}), make(chan struct{})
	for i := 0; i < 64; i++ {
		task := &sched.Task{Class: "K", Label: fmt.Sprint("t", i), Func: f}
		if i == 8 {
			task.Func = func(ctx *sched.Ctx) {
				close(started)
				<-hold
				f(ctx)
			}
		}
		if err := rt.Insert(task); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		<-started
		abort := errors.New("given up")
		sim.Abort(abort)
		rt.(interface{ Abort(error) }).Abort(abort)
	}()
	rt.Shutdown() // returns on the abort; the held worker is not joined
	sim.Trace()
	close(hold)
	if box := lanePool.Get(); box != nil {
		t.Error("an aborted simulator handed its lanes back")
	}
}
