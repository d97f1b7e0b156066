package bench

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"supersim/internal/factor"
	"supersim/internal/replay"
	"supersim/internal/sched"
	"supersim/internal/sched/ompss"
	"supersim/internal/sched/quark"
	"supersim/internal/sched/starpu"
)

// observableRuntime is a runtime a replay.Recorder can attach to.
type observableRuntime interface {
	sched.Runtime
	SetObserver(sched.Observer)
}

// widthRuntime reports a worker count of its own, so the recorder of a
// 1-worker run writes the replay width the capture under test was given.
type widthRuntime struct {
	observableRuntime
	width int
}

func (w widthRuntime) NumWorkers() int { return w.width }

// engineCapture is the oracle of the one pass: the capture CaptureArena
// made before it, a replay.Recorder on a 1-worker run of rt whose task
// bodies do nothing. insert submits the stream with the body it is given.
// A runtime whose master only inserts (StarPU) runs the tasks on a
// dedicated worker, concurrently with insertion; whether a task then finds
// its predecessors complete at insertion, and so the recorded ready order,
// would depend on goroutine timing, so with dedicated set that worker's
// body holds it until the stream is in. width is the DAG's replay width.
func engineCapture(rt sched.Runtime, dedicated bool, label string, width int, insert func(sched.Runtime, sched.TaskFunc) error) (*replay.Arena, error) {
	defer rt.Shutdown()
	rec, err := replay.Attach(widthRuntime{rt.(observableRuntime), width}, label)
	if err != nil {
		return nil, err
	}
	body, inserted := sched.TaskFunc(noopTask), func() {}
	if dedicated {
		ch := make(chan struct{})
		body, inserted = func(*sched.Ctx) { <-ch }, func() { close(ch) }
	}
	err = insert(rt, body)
	inserted()
	if err != nil {
		return nil, err
	}
	rt.Barrier()
	if err := rt.Err(); err != nil {
		return nil, err
	}
	return rec.Arena()
}

// engineCaptureSpec is engineCapture of the spec's stream through the
// spec's runtime at one worker, labelled and sized as CaptureArena does.
func engineCaptureSpec(spec Spec) (*replay.Arena, error) {
	ops, err := Ops(spec)
	if err != nil {
		return nil, err
	}
	capSpec := spec
	capSpec.Workers = 1
	rt, err := NewRuntime(capSpec)
	if err != nil {
		return nil, err
	}
	width := spec.Workers
	if width <= 0 {
		width = rt.NumWorkers()
	}
	label := fmt.Sprintf("%s-%s-nt%d", spec.Algorithm, spec.Scheduler, spec.NT)
	return engineCapture(rt, spec.Scheduler == "starpu", label, width, func(rt sched.Runtime, body sched.TaskFunc) error {
		return factor.Insert(rt, nil, ops, func(_ *factor.Op, t *sched.Task) { t.Func = body })
	})
}

// requireSameFrame fails unless CaptureArena and the engine capture of
// spec encode to the same bytes.
func requireSameFrame(t *testing.T, spec Spec) {
	t.Helper()
	name := fmt.Sprintf("%s/%s-%s nt=%d window=%d acc=%d", spec.Algorithm, spec.Scheduler, spec.Policy, spec.NT, spec.Window, spec.NAccelerators)
	got, err := CaptureArena(spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := engineCaptureSpec(spec)
	if err != nil {
		t.Fatalf("%s: engine capture: %v", name, err)
	}
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Errorf("%s: the one pass's frame differs from the engine capture's (ready order %v, engine %v)", name, readyColumn(got), readyColumn(want))
	}
}

// readyColumn is the arena's ready order, for failure messages.
func readyColumn(a *replay.Arena) []int {
	d := a.DAG()
	out := make([]int, len(d.Tasks))
	for i := range d.Tasks {
		out[i] = d.Tasks[i].Ready
	}
	return out
}

// TestCapturePassMatchesEngine: CaptureArena writes, byte for byte, the
// frame a recorded 1-worker run of the spec's runtime writes — for every
// algorithm at nt 1..32 under the six configurations serve-miss's keys
// spread over, QUARK under windows small enough that its master serves
// while the stream goes in, and the spec fields the runtime constructors
// read beside the policy: StarPU's accelerator workers, which no captured
// task may use, and dm's cost model.
func TestCapturePassMatchesEngine(t *testing.T) {
	maxNT := 32
	if testing.Short() {
		maxNT = 12
	}
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		for nt := 1; nt <= maxNT; nt++ {
			for _, c := range keyConfigs {
				requireSameFrame(t, Spec{Algorithm: alg, Scheduler: c.scheduler, Policy: c.policy, NT: nt, NB: 8, Workers: 8, Seed: 1})
			}
		}
		for _, window := range []int{1, 2, 4, 37, 100} {
			requireSameFrame(t, Spec{Algorithm: alg, Scheduler: "quark", NT: 9, NB: 8, Workers: 4, Seed: 1, Window: window})
		}
		for _, policy := range []string{"", "prio", "ws", "dm"} {
			requireSameFrame(t, Spec{Algorithm: alg, Scheduler: "starpu", Policy: policy, NT: 7, NB: 8, Workers: 4, Seed: 1, NAccelerators: 2})
		}
		requireSameFrame(t, Spec{Algorithm: alg, Scheduler: "starpu", Policy: "dm", NT: 7, NB: 8, Workers: 4, Seed: 1,
			CostModel: func(class string, _ sched.WorkerKind) float64 { return float64(len(class)) }})
	}
	// With no replay width, the arena takes the capture runtime's worker
	// count: the accelerators count.
	requireSameFrame(t, Spec{Algorithm: "qr", Scheduler: "starpu", NT: 4, NB: 8, NAccelerators: 3})
}

// TestCaptureRefusesWhatItCannotReproduce: a spec naming no runtime the
// pass knows, or a policy the runtime refuses, is an error, as NewRuntime's
// is.
func TestCaptureRefusesWhatItCannotReproduce(t *testing.T) {
	for _, spec := range []Spec{
		{Algorithm: "cholesky", Scheduler: "nanos", NT: 4, NB: 8, Workers: 4},
		{Algorithm: "cholesky", Scheduler: "starpu", Policy: "heft", NT: 4, NB: 8, Workers: 4},
	} {
		if _, err := CaptureArena(spec); err == nil {
			t.Errorf("%s/%s-%s: CaptureArena accepted it", spec.Algorithm, spec.Scheduler, spec.Policy)
		}
		if _, err := NewRuntime(spec); err == nil {
			t.Errorf("%s/%s-%s: NewRuntime accepted it", spec.Algorithm, spec.Scheduler, spec.Policy)
		}
	}
}

// FuzzCapturePassMatchesEngine drives the one pass and the engine capture
// with the same arbitrary stream and requires byte-equal frames. The input
// is FuzzTrackerMatchesReference's format (internal/hazard) with one
// priority byte added before each task, and the first byte — the
// tracker's reset point there, which one stream has no counterpart of —
// read as QUARK's window (0: the default): the number of handles, 1 +
// b%16; then per task a priority b%8, an argument count b%5 and one byte
// per argument, whose low nibble picks the handle (mod the handle count)
// and whose high nibble the mode (mod 3: r, w, rw).
//
// The configurations are QUARK, OmpSs and StarPU's eager, ws and dm
// policies. StarPU's prio is left out: on a stream with several roots,
// which of them the engine's dedicated worker pops first depends on how
// far insertion got when the worker woke, so the engine capture has no one
// answer there. The one pass makes that order deterministic — the worker
// takes the first task pushed — which is the engine's only order on the
// tile algorithms' single-root streams (TestCapturePassMatchesEngine).
// Under eager, ws and dm the first task pushed is the worker's first pop
// whenever it wakes: the head of the one FIFO queue, of ws's queue of
// tasks the master released, of dm's queue for its one CPU worker.
func FuzzCapturePassMatchesEngine(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 0x10, 0x01, 5, 1, 0x00, 0, 0, 7, 3, 0x12, 0x01, 0x20})
	f.Add([]byte{2, 4, 0, 0, 3, 1, 0x11, 2, 1, 0x12, 6, 2, 0x20, 0x13, 1, 3, 0x03, 0x10, 0x21, 4, 1, 0x02})
	f.Add([]byte{1, 1, 0, 1, 0x10, 1, 1, 0x00, 2, 1, 0x00, 3, 1, 0x10, 4, 1, 0x00})
	f.Fuzz(checkPassOnStream)
}

// checkPassOnStream is FuzzCapturePassMatchesEngine's body.
func checkPassOnStream(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	window, k := int(data[0]), 1+int(data[1])%16
	cells := make([]int, k)
	modes := [3]sched.Access{sched.Read, sched.Write, sched.ReadWrite}
	type task struct {
		priority int
		args     []sched.Arg
	}
	var stream []task
	for i := 2; i < len(data) && len(stream) < 512; {
		tk := task{priority: int(data[i]) % 8}
		i++
		if i < len(data) {
			n := int(data[i]) % 5
			i++
			for ; n > 0 && i < len(data); n-- {
				tk.args = append(tk.args, sched.Arg{Handle: &cells[int(data[i]&15)%k], Mode: modes[int(data[i]>>4)%3]})
				i++
			}
		}
		stream = append(stream, tk)
	}
	var qopts []quark.Option
	if window > 0 {
		qopts = append(qopts, quark.WithWindow(window))
	}
	configs := []struct {
		name string
		cfg  func() (sched.Config, error)
		rt   func() (sched.Runtime, error)
	}{
		{"quark", func() (sched.Config, error) { return quark.EngineConfig(1, qopts...), nil },
			func() (sched.Runtime, error) { return quark.New(1, qopts...) }},
		{"ompss", func() (sched.Config, error) { return ompss.EngineConfig(1), nil },
			func() (sched.Runtime, error) { return ompss.New(1) }},
		{"starpu-eager", func() (sched.Config, error) { return starpu.EngineConfig(starpu.Conf{NCPUs: 1}) },
			func() (sched.Runtime, error) { return starpu.New(starpu.Conf{NCPUs: 1}) }},
		{"starpu-dm", func() (sched.Config, error) { return starpu.EngineConfig(starpu.Conf{NCPUs: 1, Policy: "dm"}) },
			func() (sched.Runtime, error) { return starpu.New(starpu.Conf{NCPUs: 1, Policy: "dm"}) }},
		{"starpu-ws", func() (sched.Config, error) { return starpu.EngineConfig(starpu.Conf{NCPUs: 1, Policy: "ws"}) },
			func() (sched.Runtime, error) { return starpu.New(starpu.Conf{NCPUs: 1, Policy: "ws"}) }},
	}
	for _, c := range configs {
		pass := replay.NewPass(c.name, 1, len(stream), 0, 0)
		for i, tk := range stream {
			if err := pass.Task("K", []byte("T"+strconv.Itoa(i)), tk.priority, tk.args); err != nil {
				t.Fatal(err)
			}
		}
		cfg, err := c.cfg()
		if err != nil {
			t.Fatal(err)
		}
		got, err := pass.Arena(&cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rt, err := c.rt()
		if err != nil {
			t.Fatal(err)
		}
		want, err := engineCapture(rt, !cfg.MasterParticipates, c.name, 1, func(rt sched.Runtime, body sched.TaskFunc) error {
			for i, tk := range stream {
				if err := rt.Insert(&sched.Task{Class: "K", Label: "T" + strconv.Itoa(i), Priority: tk.priority, Args: tk.args, Func: body}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: engine capture: %v", c.name, err)
		}
		if !bytes.Equal(got.Encode(), want.Encode()) {
			t.Fatalf("%s: the one pass's frame differs from the engine capture's (ready order %v, engine %v)", c.name, readyColumn(got), readyColumn(want))
		}
	}
}
