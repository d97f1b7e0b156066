package replay

import (
	"fmt"
	"sync"
	"unsafe"

	"supersim/internal/hazard"
)

// Pass captures a serial task stream in one pass on the calling goroutine,
// with no runtime: each task's operands go through one hazard tracker — the
// one every runtime resolves its hazards with — and its row goes straight
// into the arena's columns through the builder BuildArena uses. It is the
// one capture path, with two entries: Task for a stream naming its data by
// opaque handles (the Capture runtime, fed the tasks inserted into it) and
// KeyTask for one naming them by dense keys (bench's captures, fed straight
// from a tile algorithm's generator). The frame is, byte for byte, the one
// a run of any of the runtimes over the same stream resolves: a frame holds
// the graph the tracker resolved, and no runtime resolves it differently.
//
// A Pass serves one stream, which goes in through one entry, and is not
// safe for concurrent use.
type Pass struct {
	label   string
	workers int
	tracker *hazard.Tracker
	b       *builder
	handles int   // distinct data handles seen (the ids are dense: highest + 1)
	err     error // first unrepresentable task
}

// trackerPool recycles the passes' hazard trackers, Reset, from one
// finished pass to the next. Pooled memory lives at most two GC cycles.
var trackerPool = sync.Pool{New: func() any { return hazard.NewTracker() }}

// NewPass starts the capture of a stream of tasks tasks declaring args
// arguments between them, whose distinct class and label strings take
// labelBytes bytes (each string counted once, as the table interns it).
// These sizes place the sections of the one buffer the pass writes the
// frame in: the per-task columns, the footprint columns and the string
// table — offsets and bytes, the DAG label added here — never run short;
// the dependence columns get the room of the footprints (the tile
// algorithms resolve just under one edge per argument), and a stream that
// resolves more moves the sections to a bigger buffer. label names the DAG
// and workers is its default replay width.
func NewPass(label string, workers, tasks, args, labelBytes int) *Pass {
	return newPass(label, workers, tasks, args, labelBytes, tasks+internSlack, nil)
}

// NewKeyPass is NewPass for a stream that goes in through KeyTask or
// KeyRow: its labels take no room in the string table's index, which is
// sized for the classes alone. With a nil store the arena gets a frame of
// its own, for any caller to keep. With a store it is built in the
// store's storage (Store), and is valid only until the store is used
// again; the Pass itself then lives in the store too.
func NewKeyPass(label string, workers, tasks, args, labelBytes int, store *Store) *Pass {
	return newPass(label, workers, tasks, args, labelBytes, internSlack, store)
}

func newPass(label string, workers, tasks, args, labelBytes, interned int, store *Store) *Pass {
	var p *Pass
	if store == nil {
		p = new(Pass)
	} else {
		p = &store.pass
	}
	*p = Pass{
		label:   label,
		workers: workers,
		tracker: trackerPool.Get().(*hazard.Tracker),
		b:       newBuilder(tasks, args, args, labelBytes+len(label), interned, store),
	}
	return p
}

// Task appends the stream's next task: its class, its label, its priority
// and its operands, whose hazards against the tasks before it the tracker
// resolves. The label's bytes are copied; the caller may reuse them.
func (p *Pass) Task(class string, label []byte, priority int, args []hazard.Arg) error {
	if p.err != nil {
		return p.err
	}
	_, handles, deps := p.tracker.Insert(args)
	return p.Row(class, label, priority, args, handles, deps)
}

// KeyTask is Task for a stream whose operands are dense keys
// (hazard.Tracker.InsertKeys) and whose labels are distinct — from each
// other, from every class and from the DAG label, as a tile algorithm's
// are, since a label names the task's tiles. The label is appended to the
// string table without a lookup (KeyRow); the classes are interned. A
// stream whose labels repeat must go through Task: KeyTask would store a
// repeat twice and write another frame.
func (p *Pass) KeyTask(class string, label []byte, priority int, args []hazard.KeyArg) error {
	if p.err != nil {
		return p.err
	}
	_, handles, deps := p.tracker.InsertKeys(args)
	return p.KeyRow(class, label, priority, args, handles, deps)
}

// Row appends a task whose hazards are already resolved: handles[i] is the
// dense id of args[i]'s datum and deps the task's dependences, as a
// tracker's Insert returns them. Task is Row after the tracker; a caller
// that resolved the stream itself (a test handing over an engine's own
// resolution) calls Row directly, and must not mix the two in one Pass.
//
//simlint:hotpath
func (p *Pass) Row(class string, label []byte, priority int, args []hazard.Arg, handles []int32, deps []hazard.Dep) error {
	if err := p.row(class, label, priority, false, handles, deps); err != nil {
		return err
	}
	for i, h := range handles {
		p.b.footprint(h, args[i].Mode)
	}
	return nil
}

// KeyRow is Row for KeyTask's stream, its label distinct and appended
// without a lookup. KeyTask is KeyRow after the tracker; a stage benchmark
// that resolved the stream beforehand calls KeyRow directly.
//
//simlint:hotpath
func (p *Pass) KeyRow(class string, label []byte, priority int, args []hazard.KeyArg, handles []int32, deps []hazard.Dep) error {
	if err := p.row(class, label, priority, true, handles, deps); err != nil {
		return err
	}
	for i, h := range handles {
		p.b.footprint(h, args[i].Mode)
	}
	return nil
}

// row opens the task's row and appends its dependences; the caller appends
// its footprints.
//
//simlint:hotpath
func (p *Pass) row(class string, label []byte, priority int, distinct bool, handles []int32, deps []hazard.Dep) error {
	if p.err != nil {
		return p.err
	}
	// The builder copies the label into the arena's region before it keys
	// anything on it, so the string over the caller's bytes lives only for
	// this call.
	lab := unsafe.String(unsafe.SliceData(label), len(label))
	if p.err = p.b.task(class, lab, priority, distinct); p.err != nil {
		return p.err
	}
	for _, h := range handles {
		p.handles = max(p.handles, int(h)+1)
	}
	for _, d := range deps {
		p.b.dep(d)
	}
	return nil
}

// Arena finishes the capture and returns the captured graph. An empty
// stream or a task the columns cannot hold returns an error. The Pass must
// not be used afterwards.
func (p *Pass) Arena() (*Arena, error) {
	if p.tracker != nil {
		p.tracker.Reset()
		trackerPool.Put(p.tracker)
		p.tracker = nil
	}
	if p.err != nil {
		return nil, p.err
	}
	if p.b == nil {
		return nil, fmt.Errorf("replay: pass already finished")
	}
	b := p.b
	p.b = nil
	return b.finish(p.label, p.workers, p.handles)
}
