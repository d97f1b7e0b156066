package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its own calls into the system (HTTP requests, exported
// functions). Spans of one operation share Op; Parent is the ID of the
// span that caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      int64  `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer buffers spans in memory until the run ends. A nil *tracer is
// tracing switched off: start and end return at once, so the untraced
// windows pay one nil check per boundary.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID for end and for children's Parent.
func (t *tracer) start(name, layer string, op int64, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Layer: layer, Op: op, Parent: parent, StartNS: now,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other (concurrent requests under one parent) and may stick out of the
// parent; only the union of their intervals inside the parent is
// subtracted.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// printSpanSummary prints, per span name, how many spans there were and
// their total and self time: the quick look before opening the file.
func printSpanSummary(workload string, spans []span) {
	type agg struct {
		layer       string
		n           int
		total, self int64
	}
	self := selfTimes(spans)
	byName := map[string]*agg{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{layer: s.Layer}
			byName[s.Name] = a
		}
		a.n++
		a.total += s.EndNS - s.StartNS
		a.self += self[s.ID]
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := byName[name]
		fmt.Printf("# %s span %s layer=%s n=%d total_ms=%.3f self_ms=%.3f\n",
			workload, name, a.layer, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}

// spanFile is the on-disk form of one workload's traced run.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeSpanFile(path, workload string, seed uint64, spans []span) error {
	raw, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
