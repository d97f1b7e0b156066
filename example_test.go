package supersim_test

import (
	"fmt"

	"supersim"
)

// ExampleSimulator shows the paper's core usage pattern: real scheduler,
// simulated kernels, virtual trace. A producer and two parallel consumers
// run on two virtual cores.
func ExampleSimulator() {
	rt, _ := supersim.NewQUARK(2)
	sim := supersim.NewSimulator(rt, "example")
	tk := supersim.NewTasker(sim, supersim.ClassMap{"LOAD": 1.0, "WORK": 2.0}, 42)

	src := new(int)
	rt.Insert(&supersim.Task{Class: "LOAD", Label: "load",
		Func: tk.SimTask("LOAD"),
		Args: []supersim.Arg{supersim.W(src)}})
	for i := 0; i < 2; i++ {
		rt.Insert(&supersim.Task{Class: "WORK", Label: "work",
			Func: tk.SimTask("WORK"),
			Args: []supersim.Arg{supersim.R(src)}})
	}
	rt.Shutdown()

	fmt.Printf("makespan: %.1f virtual seconds\n", sim.Trace().Makespan())
	fmt.Printf("tasks traced: %d\n", len(sim.Trace().Events))
	// Output:
	// makespan: 3.0 virtual seconds
	// tasks traced: 3
}

// ExampleTasker_SimTask shows that hazard annotations serialize conflicting
// tasks in virtual time: two writers to the same handle cannot overlap.
func ExampleTasker_SimTask() {
	rt, _ := supersim.NewOmpSs(4)
	sim := supersim.NewSimulator(rt, "example")
	tk := supersim.NewTasker(sim, supersim.FixedModel(1.5), 1)

	h := new(int)
	rt.Insert(&supersim.Task{Class: "W", Label: "w1", Func: tk.SimTask("W"),
		Args: []supersim.Arg{supersim.RW(h)}})
	rt.Insert(&supersim.Task{Class: "W", Label: "w2", Func: tk.SimTask("W"),
		Args: []supersim.Arg{supersim.RW(h)}})
	rt.Shutdown()

	fmt.Printf("chain of 2 x 1.5s on 4 cores: %.1fs\n", sim.Trace().Makespan())
	// Output:
	// chain of 2 x 1.5s on 4 cores: 3.0s
}

// ExampleCaptureDAG captures a task DAG through ordinary insertion code —
// the runtime CaptureDAG returns runs nothing — and replays it on the
// virtual timeline under a duration model, with no scheduler: the same
// producer and two consumers as ExampleSimulator, the same makespan.
func ExampleCaptureDAG() {
	capture := supersim.CaptureDAG("example", 2)
	src := new(int)
	capture.Insert(&supersim.Task{Class: "LOAD", Label: "load",
		Args: []supersim.Arg{supersim.W(src)}})
	for i := 0; i < 2; i++ {
		capture.Insert(&supersim.Task{Class: "WORK", Label: "work",
			Args: []supersim.Arg{supersim.R(src)}})
	}
	dag, _ := capture.DAG()
	tr, _ := supersim.ReplayDAG(dag, supersim.ReplayOptions{
		Model: supersim.ClassMap{"LOAD": 1.0, "WORK": 2.0},
	})

	fmt.Printf("captured: %d tasks, %d dependences\n", len(dag.Tasks), dag.NumEdges())
	fmt.Printf("replayed makespan: %.1f virtual seconds\n", tr.Makespan())
	// Output:
	// captured: 3 tasks, 2 dependences
	// replayed makespan: 3.0 virtual seconds
}
