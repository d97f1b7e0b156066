package replay

import (
	"fmt"
	"sync"
	"unsafe"

	"supersim/internal/hazard"
	"supersim/internal/sched"
)

// Pass captures a serial task stream in one pass on the calling goroutine,
// with no runtime: each task's operands go through one hazard tracker — the
// one every runtime resolves its hazards with — and its row goes straight
// into the arena's columns through the builder the Recorder and BuildArena
// use. Arena finishes the columns and stamps the ready column by driving a
// runtime's own policy through the 1-worker dispatch its engine performs
// (sched.ReadyOrder), so the frame is, byte for byte, the one the Recorder
// writes from a 1-worker run of that runtime over the same stream.
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
// The per-task columns, the footprint columns and the string table —
// offsets and bytes, the DAG label added here — then never regrow; the
// dependence columns get the room of the footprints (the tile algorithms
// resolve just under one edge per argument) and grow if a stream resolves
// more. label names the DAG and workers is its default replay width.
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
// that resolved the stream itself (a stage benchmark) calls Row directly,
// and must not mix the two in one Pass.
//
//simlint:hotpath
func (p *Pass) Row(class string, label []byte, priority int, args []hazard.Arg, handles []int32, deps []hazard.Dep) error {
	if p.err != nil {
		return p.err
	}
	// intern copies the label into the arena's region before it keys its
	// map, so the string over the caller's bytes lives only for this call.
	lab := unsafe.String(unsafe.SliceData(label), len(label))
	if p.err = p.b.task(class, lab, priority, 0, 0); p.err != nil {
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

// Arena finishes the capture and returns the captured graph. With ready
// not nil, its ready column holds the order in which a 1-worker engine
// built from *ready makes the tasks ready (Arena.ReadyOrder); with ready
// nil the column says the order is unknown (-1). An empty stream, a task
// the columns cannot hold or a ready pass the configuration refuses
// returns an error. The Pass must not be used afterwards.
func (p *Pass) Arena(ready *sched.Config) (*Arena, error) {
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
	a, err := b.finish(p.label, p.workers, p.handles)
	if err != nil {
		return nil, err
	}
	if ready != nil {
		if err := a.ReadyOrder(*ready, a.ready); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// ReadyOrder writes into ready (len NumTasks) the position at which each
// task enters the ready queue when the arena's graph, in id order, runs on
// a 1-worker engine built from cfg with bodies that do nothing
// (sched.ReadyOrder): what the ready column of a capture under that
// configuration records. The arena is not changed.
func (a *Arena) ReadyOrder(cfg sched.Config, ready []int32) error {
	return sched.ReadyOrder(cfg, &sched.Graph{
		Priority: a.priority,
		Class:    func(i int) string { return a.str(a.classIdx[i]) },
		DepOff:   a.depOff, DepPred: a.depPred,
		SuccOff: a.succOff, Succ: a.succList,
		ArgOff: a.fpOff, ArgHandle: a.fpHandle, ArgMode: a.fpMode,
		Handles: a.handles,
	}, ready)
}
