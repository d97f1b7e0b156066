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

// engineObserver is the engine's side of the oracle: it hands each
// insertion's own resolution — the engine's dense handle ids and the deps
// its hazard tracker derived — to Pass.Row, so the frame is written from
// what the live engine resolved, not from a tracker of the pass's own.
type engineObserver struct {
	pass *replay.Pass
	n    int   // tasks seen
	err  error // first id out of sequence or row error
}

func (o *engineObserver) TaskInserted(t *sched.Task, handles []int32, deps []sched.Dep) {
	if o.err != nil {
		return
	}
	if t.ID() != o.n {
		o.err = fmt.Errorf("engine task id %d, want %d", t.ID(), o.n)
		return
	}
	o.n++
	o.err = o.pass.Row(t.Class, []byte(t.Label), t.Priority, t.Args, handles, deps)
}

// engineCapture is the oracle of the one pass: the frame of a 1-worker
// run of rt, whose task bodies do nothing, written through an
// engineObserver. insert submits the stream. width is the DAG's replay
// width.
func engineCapture(rt sched.Runtime, label string, width int, insert func(sched.Runtime) error) (*replay.Arena, error) {
	defer rt.Shutdown()
	o := &engineObserver{pass: replay.NewPass(label, width, 0, 0, 0)}
	rt.(interface{ SetObserver(sched.Observer) }).SetObserver(o)
	if err := insert(rt); err != nil {
		return nil, err
	}
	rt.Barrier()
	if err := rt.Err(); err != nil {
		return nil, err
	}
	if o.err != nil {
		return nil, o.err
	}
	return o.pass.Arena()
}

// engineCaptureSpec is engineCapture of the spec's stream through the
// spec's runtime at one worker, labelled and sized as CaptureArena does.
func engineCaptureSpec(spec Spec) (*replay.Arena, error) {
	a, tm, err := shapes(spec)
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
	label := fmt.Sprintf("%s-nt%d", spec.Algorithm, spec.NT)
	return engineCapture(rt, label, width, func(rt sched.Runtime) error {
		return factor.Insert(rt, nil, spec.Algorithm, a, tm, func(_ *factor.Task, t *sched.Task) { t.Func = noopTask })
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
		t.Errorf("%s: the one pass's frame differs from the engine capture's", name)
	}
}

// TestCapturePassMatchesEngine: CaptureArena writes, byte for byte, the
// frame of the graph a live 1-worker run of the spec's runtime resolves — for every
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
// The runtimes are QUARK, OmpSs and StarPU under each of its four
// policies. A frame holds the graph the tracker resolved and nothing of
// the order a runtime ran it in, so every one of them, its dedicated
// worker racing the insertions included, must write the pass's frame.
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
	pass := replay.NewPass("fuzz", 1, len(stream), 0, 0)
	for i, tk := range stream {
		if err := pass.Task("K", []byte("T"+strconv.Itoa(i)), tk.priority, tk.args); err != nil {
			t.Fatal(err)
		}
	}
	got, err := pass.Arena()
	if err != nil {
		t.Fatal(err)
	}
	runtimes := []struct {
		name string
		rt   func() (sched.Runtime, error)
	}{
		{"quark", func() (sched.Runtime, error) { return quark.New(1, qopts...) }},
		{"ompss", func() (sched.Runtime, error) { return ompss.New(1) }},
		{"starpu-eager", func() (sched.Runtime, error) { return starpu.New(starpu.Conf{NCPUs: 1}) }},
		{"starpu-prio", func() (sched.Runtime, error) { return starpu.New(starpu.Conf{NCPUs: 1, Policy: "prio"}) }},
		{"starpu-ws", func() (sched.Runtime, error) { return starpu.New(starpu.Conf{NCPUs: 1, Policy: "ws"}) }},
		{"starpu-dm", func() (sched.Runtime, error) { return starpu.New(starpu.Conf{NCPUs: 1, Policy: "dm"}) }},
	}
	for _, r := range runtimes {
		rt, err := r.rt()
		if err != nil {
			t.Fatal(err)
		}
		want, err := engineCapture(rt, "fuzz", 1, func(rt sched.Runtime) error {
			for i, tk := range stream {
				if err := rt.Insert(&sched.Task{Class: "K", Label: "T" + strconv.Itoa(i), Priority: tk.priority, Args: tk.args, Func: noopTask}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: engine capture: %v", r.name, err)
		}
		if !bytes.Equal(got.Encode(), want.Encode()) {
			t.Fatalf("%s: the one pass's frame differs from the engine capture's", r.name)
		}
	}
}
