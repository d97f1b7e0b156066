package core

import (
	"testing"
	"testing/quick"

	"supersim/internal/hazard"
	"supersim/internal/sched"
	"supersim/internal/trace"
)

// TestSimulationCausalityProperty is the central invariant of the paper's
// Task Execution Queue: for arbitrary random task graphs and durations, the
// simulated trace must satisfy
//
//  1. no two events overlap on one worker lane,
//  2. every task starts no earlier than all its data-hazard predecessors
//     finish (virtual causality),
//  3. the makespan is bounded below by the DAG critical path and above by
//     the serial sum of durations, and
//  4. exactly one event is traced per task.
func TestSimulationCausalityProperty(t *testing.T) {
	type taskSpec struct {
		HandleA, HandleB uint8
		Mode             uint8
		DurationTenths   uint8
	}
	check := func(specs []taskSpec, workersRaw uint8) bool {
		if len(specs) == 0 {
			return true
		}
		if len(specs) > 40 {
			specs = specs[:40]
		}
		workers := int(workersRaw%4) + 1
		handles := make([]*int, 5)
		for i := range handles {
			handles[i] = new(int)
		}
		// Derive the expected dependence DAG exactly as the runtime will,
		// and its critical path: a task finishes no earlier than its own
		// duration after its latest predecessor (ids are a topological
		// order, so one pass suffices).
		tracker := hazard.NewTracker()
		preds := make([][]int, len(specs))
		durations := make([]float64, len(specs))
		finish := make([]float64, len(specs))
		var critical float64
		argsOf := make([][]sched.Arg, len(specs))
		for i, s := range specs {
			durations[i] = float64(s.DurationTenths%20)/10 + 0.1
			mode := []hazard.Access{hazard.Read, hazard.Write, hazard.ReadWrite}[int(s.Mode)%3]
			args := []sched.Arg{
				{Handle: handles[int(s.HandleA)%5], Mode: mode},
				{Handle: handles[int(s.HandleB)%5], Mode: hazard.Read},
			}
			argsOf[i] = args
			id, _, deps := tracker.Insert(args)
			if id != i {
				return false
			}
			var start float64
			for _, d := range deps {
				preds[i] = append(preds[i], d.Pred)
				start = max(start, finish[d.Pred])
			}
			finish[i] = start + durations[i]
			critical = max(critical, finish[i])
		}
		// Run the simulation.
		rt := mustQuark(workers)
		sim := NewSimulator(rt, "prop")
		for i := range specs {
			i := i
			rt.Insert(&sched.Task{
				Class: "K",
				Label: "K",
				Args:  argsOf[i],
				Func: func(ctx *sched.Ctx) {
					sim.Execute(ctx, "K", durations[i])
				},
			})
		}
		rt.Shutdown()
		tr := sim.Trace()
		// (4) one event per task.
		if len(tr.Events) != len(specs) {
			return false
		}
		byID := make(map[int]trace.Event, len(tr.Events))
		for _, e := range tr.Events {
			if _, dup := byID[e.TaskID]; dup {
				return false
			}
			byID[e.TaskID] = e
		}
		// (1) no overlaps.
		if len(tr.Validate()) != 0 {
			return false
		}
		// (2) causality along every dependence edge.
		for id, ps := range preds {
			succ, okS := byID[id]
			if !okS {
				return false
			}
			for _, p := range ps {
				pred, okP := byID[p]
				if !okP || succ.Start < pred.End-1e-9 {
					return false
				}
			}
		}
		// (3) makespan bounds.
		var total float64
		for _, d := range durations {
			total += d
		}
		ms := tr.Makespan()
		return ms >= critical-1e-9 && ms <= total+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSimulationDeterminismWithSingleWorker checks that a single-worker
// simulation is fully deterministic: same seed, same trace.
func TestSimulationDeterminismWithSingleWorker(t *testing.T) {
	run := func() []trace.Event {
		rt := mustQuark(1)
		sim := NewSimulator(rt, "det")
		tk := NewTasker(sim, FixedModel(0.25), 99)
		h := new(int)
		for i := 0; i < 20; i++ {
			rt.Insert(&sched.Task{Class: "K", Label: "K", Func: tk.SimTask("K"),
				Args: []sched.Arg{sched.RW(h)}})
		}
		rt.Shutdown()
		return sim.Trace().Events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("event counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestWorkConservationProperty: total busy time equals the sum of all
// sampled durations regardless of scheduling.
func TestWorkConservationProperty(t *testing.T) {
	err := quick.Check(func(durTenths []uint8, workersRaw uint8) bool {
		if len(durTenths) == 0 {
			return true
		}
		if len(durTenths) > 30 {
			durTenths = durTenths[:30]
		}
		workers := int(workersRaw%4) + 1
		rt := mustQuark(workers)
		sim := NewSimulator(rt, "wc")
		var want float64
		for _, d := range durTenths {
			dur := float64(d%30) / 10
			want += dur
			rt.Insert(&sched.Task{Class: "K", Label: "K", Func: func(ctx *sched.Ctx) {
				sim.Execute(ctx, "K", dur)
			}})
		}
		rt.Shutdown()
		got := sim.Trace().BusyTime()
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}
