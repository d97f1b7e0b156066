package factor

import (
	"strings"
	"sync"

	"supersim/internal/core"
	"supersim/internal/sched"
	"supersim/internal/slab"
	"supersim/internal/tile"
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

// insertBlock is how many tasks' worth of memory the package-level Insert
// cuts its slabs in at most: large enough that the slabs' allocations
// vanish against a block's tasks, small enough (~200 KB of tasks) that a
// windowed run over a long stream gives memory back as it advances — a
// block is garbage once its last task completed.
const insertBlock = 1024

// Insert submits the named algorithm's tasks over the tiles of a and, for
// QR, t to rt in stream order, walking its generator once, and is the one
// place a task becomes a sched.Task: class, label, arguments and priority
// come from the generated Task — its arguments are the tiles its operands
// name — and body gives the task its function (it may also set NumThreads
// and Where). body receives the generator's Task, reused for the next
// one, so a function that outlives the call must copy what it needs. sim,
// when the run has one, gets its trace buffers sized for the stream first.
// Insertion stops at the first task rt rejects (an aborted runtime, for
// example) and returns that error. Call rt.Barrier() afterwards.
//
// The tasks, their argument lists and their labels live as long as the
// run and no longer, so they are not allocated one by one: the run is
// sized by factor.Measure's count of the stream, its labels go back to
// back into one string, and its tasks and argument lists are cut from
// slabs that double up to a block each (slab.CarveChunk).
func Insert(rt sched.Runtime, sim *core.Simulator, algorithm string, a, t *tile.Matrix, body func(task *Task, st *sched.Task)) error {
	return (*Buffers)(nil).Insert(rt, sim, algorithm, a, t, body)
}

// Insert is the package-level Insert with the tasks and their argument
// lists cut from b, sized exactly: b's memory outlives the run anyway, so
// there is nothing to give back while the run advances, and a b recycled
// across runs of one size is never regrown. The labels are still
// allocated per run.
func (b *Buffers) Insert(rt sched.Runtime, sim *core.Simulator, algorithm string, a, t *tile.Matrix, body func(task *Task, st *sched.Task)) error {
	walk, err := walkOver(algorithm, a, t)
	if err != nil {
		return err
	}
	size := measure(walk, a.NT)
	if sim != nil {
		sim.Reserve(size.Tasks) // one trace event per task
	}
	in := &inserter{rt: rt, a: a, t: t, body: body}
	in.sink = in
	if b != nil {
		in.tasks, in.args = slab.Carve(&b.tasks, size.Tasks)[:0], slab.Carve(&b.targs, size.Args)[:0]
	}
	in.labels.Grow(size.StringBytes)
	walk(a.NT, &in.gen)
	return in.err
}

// inserter turns a walk's tasks into sched.Tasks and inserts them.
type inserter struct {
	gen
	rt     sched.Runtime
	a, t   *tile.Matrix
	body   func(*Task, *sched.Task)
	tasks  []sched.Task
	args   []sched.Arg
	labels strings.Builder
	label  [64]byte
	err    error // the first rejection; nothing is inserted after it
}

func (in *inserter) emit(t *Task) {
	if in.err != nil {
		return
	}
	at := in.labels.Len()
	in.labels.Write(t.AppendLabel(in.label[:0]))
	st := &slab.CarveChunk(&in.tasks, 1, insertBlock)[0]
	st.Class, st.Label, st.Priority = string(t.Class), in.labels.String()[at:], t.Priority
	st.Args = slab.CarveChunk(&in.args, len(t.Args), 4*insertBlock) // ≤ 4 per task
	t.fillArgs(st.Args, in.a, in.t)
	in.body(t, st)
	in.err = in.rt.Insert(st)
}

// Buffers is scratch memory for scheduler runs that a caller recycles
// instead of allocating per run: the task and argument slabs Insert cuts
// the sched.Tasks from. A nil *Buffers is valid and allocates afresh on
// every call, which is what the package-level Insert does. Everything cut
// from a Buffers stays valid until Reset; the zero value is ready to use.
// Not safe for concurrent use.
type Buffers struct {
	tasks []sched.Task
	targs []sched.Arg
}

// Reset zeroes everything cut from b since the last Reset and makes it
// available again. Zeroed, b keeps no tile, task body or engine
// bookkeeping alive, and a recycled sched.Task starts as a fresh one does.
// Call it only once no task or run uses that memory any more.
func (b *Buffers) Reset() {
	clear(b.tasks)
	clear(b.targs)
	b.tasks, b.targs = b.tasks[:0], b.targs[:0]
}

// InsertMeasured inserts the named algorithm's tasks over a and t in
// measured mode: each task executes its real kernel on its tiles, and the
// measured time is accounted on sim's virtual timeline. This is the
// reproduction's "real run" (see DESIGN.md). Check sink.Err after the
// barrier; a rejected insertion is recorded there too.
func InsertMeasured(rt sched.Runtime, sim *core.Simulator, algorithm string, a, t *tile.Matrix) *ErrorSink {
	sink := &ErrorSink{}
	sink.Record(Insert(rt, sim, algorithm, a, t, func(task *Task, st *sched.Task) {
		kernel := task.thunk(a, t)
		st.Func = core.MeasuredTask(sim, st.Class, func(*sched.Ctx) { sink.Record(kernel()) })
	}))
	return sink
}

// InsertReal inserts the named algorithm's tasks over a and t for plain
// execution (no simulator, no virtual timeline): tasks just run their
// kernels under the scheduler. Used by tests that only care about
// numerical results. A rejected insertion is recorded in the sink.
func InsertReal(rt sched.Runtime, algorithm string, a, t *tile.Matrix) *ErrorSink {
	sink := &ErrorSink{}
	sink.Record(Insert(rt, nil, algorithm, a, t, func(task *Task, st *sched.Task) {
		kernel := task.thunk(a, t)
		st.Func = func(*sched.Ctx) { sink.Record(kernel()) }
	}))
	return sink
}
