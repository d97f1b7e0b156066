package factor

import (
	"strings"
	"sync"

	"supersim/internal/core"
	"supersim/internal/sched"
	"supersim/internal/slab"
)

// RunSequential executes the op stream in insertion order on the calling
// goroutine. It is the single-core reference used by correctness tests.
// It stops at the first error.
func RunSequential(ops []Op) error {
	for _, op := range ops {
		if err := op.Body(); err != nil {
			return err
		}
	}
	return nil
}

// ErrorSink collects the first numerical error raised by scheduled task
// bodies (superscalar runtimes keep executing; the error surfaces at the
// barrier, like a QUARK sequence).
type ErrorSink struct {
	mu  sync.Mutex
	err error
}

// Record stores err if it is the first one.
func (s *ErrorSink) Record(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Err returns the first recorded error, if any.
func (s *ErrorSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// insertBlock is how many ops' tasks share one set of slabs in Insert:
// large enough that the slabs' three allocations vanish against a block's
// tasks, small enough (~200 KB of tasks) that a windowed run over a long
// stream gives memory back as it advances — a block is garbage once its
// last task completed.
const insertBlock = 1024

// Insert submits the op stream to rt in order, one task per op, and is the
// one place an Op becomes a sched.Task: class, label, arguments and priority
// come from the op, and body gives the task its function (it may also set
// NumThreads and Where). sim, when the run has one, gets its trace buffers
// sized for the stream first. Insertion stops at the first task rt rejects
// (an aborted runtime, for example) and returns that error. Call
// rt.Barrier() afterwards.
//
// The tasks, their argument lists and their labels live as long as the
// stream's run and no longer, so they are not allocated one by one: each
// block of insertBlock ops gets one array of tasks, one of arguments
// (carved per task) and one string holding the block's labels back to back,
// all sized exactly.
func Insert(rt sched.Runtime, sim *core.Simulator, ops []Op, body func(op *Op, t *sched.Task)) error {
	return (*Buffers)(nil).Insert(rt, sim, ops, body)
}

// Insert is the package-level Insert with the tasks and their argument
// lists cut from b. The whole stream is one block: b's memory outlives the
// run anyway, so there is nothing to give back while the run advances, and
// a b recycled across runs of one size is never regrown. The labels are
// still allocated per run.
func (b *Buffers) Insert(rt sched.Runtime, sim *core.Simulator, ops []Op, body func(op *Op, t *sched.Task)) error {
	if sim != nil {
		sim.Reserve(len(ops)) // one trace event per op
	}
	blockLen := insertBlock
	if b != nil {
		blockLen = len(ops)
	}
	for len(ops) > 0 {
		block := ops[:min(len(ops), blockLen)]
		ops = ops[len(block):]
		nargs, nlabel := 0, 0
		for i := range block {
			nargs += len(block[i].Args)
			nlabel += block[i].labelLen()
		}
		tasks, args := b.cut(len(block), nargs)
		var lb strings.Builder
		lb.Grow(nlabel)
		var label [64]byte
		for i := range block {
			lb.Write(block[i].AppendLabel(label[:0]))
		}
		labels := lb.String()
		for i := range block {
			op, t := &block[i], &tasks[i]
			n := op.labelLen()
			t.Class = string(op.Class)
			t.Label, labels = labels[:n], labels[n:]
			t.Args = slab.Carve(&args, len(op.Args))
			op.FillSchedArgs(t.Args)
			t.Priority = op.Priority
			body(op, t)
			if err := rt.Insert(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// cut returns ntasks zero tasks and an empty slab with room for nargs
// arguments, cut from b or, when b is nil, allocated.
func (b *Buffers) cut(ntasks, nargs int) ([]sched.Task, []sched.Arg) {
	if b == nil {
		return make([]sched.Task, ntasks), make([]sched.Arg, 0, nargs)
	}
	return slab.Carve(&b.tasks, ntasks), slab.Carve(&b.targs, nargs)[:0]
}

// InsertMeasured inserts the op stream in measured mode: each task executes
// its real kernel body, and the measured time is accounted on sim's virtual
// timeline. This is the reproduction's "real run" (see DESIGN.md). Check
// sink.Err after the barrier; a rejected insertion is recorded there too.
func InsertMeasured(rt sched.Runtime, sim *core.Simulator, ops []Op) *ErrorSink {
	sink := &ErrorSink{}
	sink.Record(Insert(rt, sim, ops, func(op *Op, t *sched.Task) {
		t.Func = core.MeasuredTask(sim, t.Class, func(*sched.Ctx) { sink.Record(op.Body()) })
	}))
	return sink
}

// InsertReal inserts the op stream for plain execution (no simulator, no
// virtual timeline): tasks just run their bodies under the scheduler. Used
// by tests that only care about numerical results. A rejected insertion is
// recorded in the sink.
func InsertReal(rt sched.Runtime, ops []Op) *ErrorSink {
	sink := &ErrorSink{}
	sink.Record(Insert(rt, nil, ops, func(op *Op, t *sched.Task) {
		t.Func = func(*sched.Ctx) { sink.Record(op.Body()) }
	}))
	return sink
}
