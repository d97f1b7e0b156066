// Package trace implements the rudimentary trace-generation environment of
// Section V-A: the simulation logs each task with user-specified (virtual)
// times, and the trace can be rendered as an SVG Gantt chart or exported as
// plain text for further processing. It also provides the validation and
// comparison metrics the experiments use to quantify trace fidelity.
package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"supersim/internal/stats"
)

// Event is one executed task instance in the trace. The JSON field names
// are part of the serving API (cmd/simd) and of the diff format: two runs
// are compared by marshaling both traces and diffing the documents, so
// the names must stay stable.
type Event struct {
	// Worker is the virtual core that executed the task.
	Worker int `json:"worker"`
	// Class is the kernel class (colors the SVG).
	Class string `json:"class"`
	// Label identifies the task instance.
	Label string `json:"label"`
	// TaskID is the serial insertion index.
	TaskID int `json:"task_id"`
	// Start and End are virtual times in seconds. encoding/json emits the
	// shortest representation that round-trips, so Marshal/Unmarshal
	// preserves the exact float64 bit patterns (pinned by the round-trip
	// test against Fingerprint).
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Duration returns End - Start.
func (e Event) Duration() float64 { return e.End - e.Start }

// Trace is an execution trace over a fixed set of workers. It is not safe
// for concurrent use; the simulator appends under its own lock.
type Trace struct {
	// Label distinguishes traces ("real", "simulated", ...).
	Label string `json:"label"`
	// Workers is the number of virtual cores (lanes).
	Workers int `json:"workers"`
	// Events holds the logged tasks in completion order.
	Events []Event `json:"events"`
}

// New returns an empty trace for the given number of workers.
func New(label string, workers int) *Trace {
	return &Trace{Label: label, Workers: workers}
}

// Append logs one event.
//
//simlint:hotpath
func (t *Trace) Append(e Event) {
	//simlint:allow hotalloc — replay paths Reserve the full event count first, so this append never grows there
	t.Events = append(t.Events, e)
}

// Reserve pre-sizes the event storage for n additional events, so a run
// with a known task count (for example a tile factorization's op stream)
// appends without repeated slice growth. It never shrinks.
func (t *Trace) Reserve(n int) {
	if n <= 0 || cap(t.Events)-len(t.Events) >= n {
		return
	}
	grown := make([]Event, len(t.Events), len(t.Events)+n)
	copy(grown, t.Events)
	t.Events = grown
}

// Makespan returns the maximum End over all events (0 for empty traces).
func (t *Trace) Makespan() float64 {
	var m float64
	for _, e := range t.Events {
		if e.End > m {
			m = e.End
		}
	}
	return m
}

// BusyTime returns the summed durations of all events.
func (t *Trace) BusyTime() float64 {
	var b float64
	for _, e := range t.Events {
		b += e.Duration()
	}
	return b
}

// Efficiency returns BusyTime / (Workers * Makespan), the parallel
// efficiency visible in the trace (1.0 = perfectly packed lanes).
func (t *Trace) Efficiency() float64 {
	ms := t.Makespan()
	if ms == 0 || t.Workers == 0 {
		return 0
	}
	return t.BusyTime() / (float64(t.Workers) * ms)
}

// PerWorker returns the events grouped by worker, each group sorted by
// start time. The lanes are carved from one slab sized by a counting pass.
// One worker completes its tasks in the order it started them, so a lane of
// a trace in completion order is already sorted and only checked; a trace
// stored in another order is sorted stably, equal starts keeping their
// stored order.
func (t *Trace) PerWorker() [][]Event {
	lanes := make([][]Event, t.Workers)
	total := 0
	counts := t.TasksPerWorker()
	for _, c := range counts {
		total += c
	}
	slab := make([]Event, total)
	for w, c := range counts {
		lanes[w], slab = slab[:0:c], slab[c:]
	}
	for _, e := range t.Events {
		if e.Worker >= 0 && e.Worker < t.Workers {
			lanes[e.Worker] = append(lanes[e.Worker], e)
		}
	}
	byStart := func(a, b Event) int { return cmp.Compare(a.Start, b.Start) }
	for _, lane := range lanes {
		if !slices.IsSortedFunc(lane, byStart) {
			slices.SortStableFunc(lane, byStart)
		}
	}
	return lanes
}

// TasksPerWorker returns the event count per worker lane (the Fig. 6/7
// "core 0 runs fewer tasks" observable).
func (t *Trace) TasksPerWorker() []int {
	counts := make([]int, t.Workers)
	for _, e := range t.Events {
		if e.Worker >= 0 && e.Worker < t.Workers {
			counts[e.Worker]++
		}
	}
	return counts
}

// Violation describes one internal inconsistency in a trace.
type Violation struct {
	Kind   string // "overlap" or "negative-duration"
	Worker int
	A, B   Event // the offending events (B unset for negative-duration)
}

// Validate checks physical consistency: no two events may overlap on one
// worker lane, and every duration must be non-negative. A correct
// simulation produces no violations; the Fig. 5 race ablation uses this
// and ordering checks to quantify corruption.
func (t *Trace) Validate() []Violation {
	var out []Violation
	for w, lane := range t.PerWorker() {
		for i, e := range lane {
			if e.Duration() < 0 {
				out = append(out, Violation{Kind: "negative-duration", Worker: w, A: e})
			}
			if i > 0 {
				prev := lane[i-1]
				if e.Start < prev.End-1e-12 {
					out = append(out, Violation{Kind: "overlap", Worker: w, A: prev, B: e})
				}
			}
		}
	}
	return out
}

// Fingerprint returns a deterministic 64-bit FNV-1a digest of the trace
// content: the worker count and, in stored (completion) order, every
// event's worker, class, label, task id and exact virtual interval (bit
// patterns, not rounded values). The trace's own Label is excluded, so a
// "real" and a "replay" trace of the same execution fingerprint equal.
// The replay determinism tests compare runs by this digest; Digest is its
// incremental form, for a producer that wants the value and not the trace.
func (t *Trace) Fingerprint() uint64 {
	d := NewEventDigest(t.Workers)
	for _, e := range t.Events {
		d = d.Event(e)
	}
	return d.Sum64()
}

// ByClass groups event durations per kernel class.
func (t *Trace) ByClass() map[string][]float64 {
	out := make(map[string][]float64)
	for _, e := range t.Events {
		out[e.Class] = append(out[e.Class], e.Duration())
	}
	return out
}

// ClassSummary summarizes durations per kernel class.
func (t *Trace) ClassSummary() map[string]stats.Summary {
	out := make(map[string]stats.Summary)
	for class, durs := range t.ByClass() {
		out[class] = stats.Summarize(durs)
	}
	return out
}

// Comparison quantifies how closely a simulated trace matches a reference
// trace (the paper's Figs. 6-7 side-by-side comparison, made numeric).
type Comparison struct {
	RefMakespan, SimMakespan float64
	// MakespanErrorPct is |sim - ref| / ref * 100, the paper's headline
	// accuracy metric.
	MakespanErrorPct float64
	// EventCountDelta is len(sim) - len(ref); 0 when both executed the
	// same task set.
	EventCountDelta int
	// PerClassMeanErrPct is the relative error of mean kernel duration
	// per class.
	PerClassMeanErrPct map[string]float64
	// WorkerLoadDistance is the L1 distance of normalized per-worker
	// event counts, in [0, 2]; small values mean the same load shape
	// (for example, a lighter core 0 in both traces).
	WorkerLoadDistance float64
}

// Compare computes trace fidelity metrics of sim against ref.
func Compare(ref, sim *Trace) Comparison {
	c := Comparison{
		RefMakespan:        ref.Makespan(),
		SimMakespan:        sim.Makespan(),
		EventCountDelta:    len(sim.Events) - len(ref.Events),
		PerClassMeanErrPct: make(map[string]float64),
	}
	if c.RefMakespan > 0 {
		d := c.SimMakespan - c.RefMakespan
		if d < 0 {
			d = -d
		}
		c.MakespanErrorPct = d / c.RefMakespan * 100
	}
	refClasses := ref.ByClass()
	simClasses := sim.ByClass()
	for class, refDurs := range refClasses {
		simDurs, ok := simClasses[class]
		if !ok || len(refDurs) == 0 || len(simDurs) == 0 {
			continue
		}
		rm, sm := stats.Mean(refDurs), stats.Mean(simDurs)
		if rm > 0 {
			d := (sm - rm) / rm * 100
			if d < 0 {
				d = -d
			}
			c.PerClassMeanErrPct[class] = d
		}
	}
	refLoad, simLoad := ref.TasksPerWorker(), sim.TasksPerWorker()
	if len(refLoad) == len(simLoad) {
		var refTotal, simTotal int
		for i := range refLoad {
			refTotal += refLoad[i]
			simTotal += simLoad[i]
		}
		if refTotal > 0 && simTotal > 0 {
			var dist float64
			for i := range refLoad {
				d := float64(refLoad[i])/float64(refTotal) - float64(simLoad[i])/float64(simTotal)
				if d < 0 {
					d = -d
				}
				dist += d
			}
			c.WorkerLoadDistance = dist
		}
	}
	return c
}

// WriteText exports the trace as tab-separated plain text (Section V-A:
// "the trace data can also be stored in a plain text file for further
// processing").
func (t *Trace) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# trace %s workers=%d events=%d makespan=%.9f\n", t.Label, t.Workers, len(t.Events), t.Makespan()); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "taskid\tworker\tclass\tlabel\tstart\tend"); err != nil {
		return err
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%.9f\t%.9f\n",
			e.TaskID, e.Worker, e.Class, e.Label, e.Start, e.End); err != nil {
			return err
		}
	}
	return nil
}
