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
// one capture path: bench's captures drive it from an op stream, and the
// Capture runtime from the tasks inserted into it. The frame is, byte for
// byte, the one a run of any of the runtimes over the same stream resolves:
// a frame holds the graph the tracker resolved, and no runtime resolves it
// differently.
//
// A Pass serves one stream and is not safe for concurrent use.
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
	return &Pass{
		label:   label,
		workers: workers,
		tracker: trackerPool.Get().(*hazard.Tracker),
		b:       newBuilder(tasks, args, args, labelBytes+len(label)),
	}
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

// Row appends a task whose hazards are already resolved: handles[i] is the
// dense id of args[i]'s datum and deps the task's dependences, as a
// tracker's Insert returns them. Task is Row after the tracker; a caller
// that resolved the stream itself (a stage benchmark, or a test handing
// over an engine's own resolution) calls Row directly, and must not mix
// the two in one Pass.
//
//simlint:hotpath
func (p *Pass) Row(class string, label []byte, priority int, args []hazard.Arg, handles []int32, deps []hazard.Dep) error {
	if p.err != nil {
		return p.err
	}
	// intern copies the label into the arena's region before it keys its
	// map, so the string over the caller's bytes lives only for this call.
	lab := unsafe.String(unsafe.SliceData(label), len(label))
	if p.err = p.b.task(class, lab, priority); p.err != nil {
		return p.err
	}
	for i, h := range handles {
		p.b.footprint(h, args[i].Mode)
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
