package replay

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"supersim/internal/core"
	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/trace"
)

// jitterModel is a stochastic DurationModel for determinism tests: every
// draw consumes the worker's stream, so divergent sampling orders are
// visible in the trace.
type jitterModel struct{ base float64 }

func (m jitterModel) Duration(class string, _ sched.WorkerKind, src *rng.Source) float64 {
	return m.base * (0.5 + src.Float64())
}

// captureRun runs a small diamond-heavy workload on a 1-worker engine with
// a priority policy and returns the direct simulation's trace together
// with the DAG a Capture of the same insertions holds. The one worker is
// the master, which runs nothing before the barrier: every task is in
// when the first one is picked, as replay assumes. (A dedicated worker
// could pop src0 before src1, of higher priority, is inserted, depending
// on goroutine timing.)
func captureRun(t *testing.T, model core.DurationModel, seed uint64) (*DAG, *trace.Trace) {
	t.Helper()
	e, err := sched.NewEngine(sched.Config{
		Workers: 1, Policy: sched.NewPriorityPolicy(), Name: "direct", MasterParticipates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := core.NewSimulator(e, "direct")
	tk := core.NewTasker(sim, model, seed)
	insertDiamonds(t, e, tk)
	e.Barrier()
	e.Shutdown()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	return captureOf(t, "diamond", 1, func(rt sched.Runtime) { insertDiamonds(t, rt, tk) }), sim.Trace()
}

// captureOf returns the DAG a Capture of the given label and replay width
// holds once insert has inserted a stream into it — the insertion code of
// a direct run, unchanged.
func captureOf(t *testing.T, label string, workers int, insert func(rt sched.Runtime)) *DAG {
	t.Helper()
	c := NewCapture(label, workers)
	insert(c)
	dag, err := c.DAG()
	if err != nil {
		t.Fatal(err)
	}
	return dag
}

// insertDiamonds inserts three overlapping diamonds over four handles with
// mixed priorities: sources, RaW/WaR/WaW edges, and a shared sink.
func insertDiamonds(t *testing.T, rt sched.Runtime, tk *core.Tasker) {
	t.Helper()
	h := make([]*int, 4)
	for i := range h {
		h[i] = new(int)
	}
	tasks := []*sched.Task{
		{Class: "SRC", Label: "src0", Args: []sched.Arg{sched.W(h[0])}},
		{Class: "SRC", Label: "src1", Args: []sched.Arg{sched.W(h[1])}, Priority: 2},
		{Class: "MID", Label: "mid0", Args: []sched.Arg{sched.R(h[0]), sched.W(h[2])}},
		{Class: "MID", Label: "mid1", Args: []sched.Arg{sched.R(h[1]), sched.W(h[3])}, Priority: 5},
		{Class: "MID", Label: "mid2", Args: []sched.Arg{sched.R(h[0]), sched.RW(h[1])}, Priority: 1},
		{Class: "SNK", Label: "snk0", Args: []sched.Arg{sched.R(h[2]), sched.R(h[3]), sched.W(h[0])}},
		{Class: "SNK", Label: "snk1", Args: []sched.Arg{sched.RW(h[1]), sched.R(h[3])}},
	}
	for _, task := range tasks {
		task.Func = tk.SimTask(task.Class)
		if err := rt.Insert(task); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCapturedDAGValidates(t *testing.T) {
	dag, _ := captureRun(t, core.FixedModel(1e-3), 7)
	if err := dag.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(dag.Tasks) != 7 {
		t.Fatalf("captured %d tasks, want 7", len(dag.Tasks))
	}
	if dag.Handles != 4 {
		t.Fatalf("captured %d handles, want 4", dag.Handles)
	}
	if dag.NumEdges() == 0 {
		t.Fatal("captured no dependence edges")
	}
}

func TestValidateDetectsCorruptedEdges(t *testing.T) {
	dag, _ := captureRun(t, core.FixedModel(1e-3), 7)
	dag.Tasks[5].Deps[0].Pred = 1 // claim a dependence the footprints refute
	if err := dag.Validate(); err == nil {
		t.Fatal("Validate accepted a corrupted dependence edge")
	}
}

// TestReplayMatchesDirectOneWorker is the strongest equivalence check: on
// one worker the direct simulation is fully deterministic, so the replayed
// trace must be identical event for event — under a fixed model and under
// a stochastic model (same per-worker stream derivation).
func TestReplayMatchesDirectOneWorker(t *testing.T) {
	models := []struct {
		name  string
		model core.DurationModel
	}{
		{"fixed", core.FixedModel(1e-3)},
		{"stochastic", jitterModel{base: 1e-3}},
	}
	for _, tc := range models {
		dag, direct := captureRun(t, tc.model, 42)
		replayed, err := Run(dag, Options{Workers: 1, Model: tc.model, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := replayed.Fingerprint(), direct.Fingerprint(); got != want {
			t.Errorf("%s: replay fingerprint %#x != direct %#x\ndirect: %+v\nreplay: %+v",
				tc.name, got, want, direct.Events, replayed.Events)
		}
	}
}

// TestReplayMatchesDirectFIFO: the diamond workload carries priorities,
// but a FIFO-policy engine ignores them — replay must too when
// Options.IgnorePriorities is set, and the 1-worker traces must then be
// identical event for event.
func TestReplayMatchesDirectFIFO(t *testing.T) {
	model := jitterModel{base: 1e-3}
	e, err := sched.NewEngine(sched.Config{
		Workers: 1, Policy: sched.NewFIFOPolicy(), Name: "direct-fifo",
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := core.NewSimulator(e, "direct")
	tk := core.NewTasker(sim, model, 42)
	insertDiamonds(t, e, tk)
	e.Barrier()
	e.Shutdown()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	dag := captureOf(t, "diamond-fifo", 1, func(rt sched.Runtime) { insertDiamonds(t, rt, tk) })
	direct := sim.Trace()

	fifo, err := Run(dag, Options{Workers: 1, Model: model, Seed: 42, IgnorePriorities: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fifo.Fingerprint(), direct.Fingerprint(); got != want {
		t.Errorf("FIFO replay fingerprint %#x != direct %#x\ndirect: %+v\nreplay: %+v",
			got, want, direct.Events, fifo.Events)
	}
	// Sanity: priority-ordered replay of the same capture schedules the
	// prioritized diamond differently, so the knob is load-bearing.
	prio, err := Run(dag, Options{Workers: 1, Model: model, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if prio.Fingerprint() == direct.Fingerprint() {
		t.Error("priority-ordered replay unexpectedly matched the FIFO run; test workload no longer exercises IgnorePriorities")
	}
}

// chainModel gives task k of chain c (class "K<c><k>") its own fixed
// duration 2^-10·(1 + 2^-(i+2)), i = 4c+k. A completion time is the sum of
// the durations along the task's causal chain; sums of distinct subsets of
// these values are distinct and exact in float64, so no two completions of
// the run coincide.
type chainModel struct{}

func (chainModel) Duration(class string, _ sched.WorkerKind, _ *rng.Source) float64 {
	i := 4*int(class[1]-'0') + int(class[2]-'0')
	return math.Ldexp(1, -10) * (1 + math.Ldexp(1, -(i+2)))
}

// TestReplayMatchesDirectChains checks multi-worker equivalence on a
// workload where it is well defined: independent chains whose completion
// times never tie have deterministic per-task virtual intervals even
// though worker assignment races in the direct run, so the comparison is
// per label. (With equal durations the three tasks that finish together
// release their successors in goroutine-arrival order, and which chain
// waits for a worker differed from run to run.)
func TestReplayMatchesDirectChains(t *testing.T) {
	const (
		chains  = 5
		depth   = 4
		workers = 3
	)
	model := chainModel{}
	e, err := sched.NewEngine(sched.Config{Workers: workers, Policy: sched.NewFIFOPolicy(), Name: "chains"})
	if err != nil {
		t.Fatal(err)
	}
	sim := core.NewSimulator(e, "direct")
	tk := core.NewTasker(sim, model, 1)
	insert := func(rt sched.Runtime) {
		for c := 0; c < chains; c++ {
			h := new(int)
			for k := 0; k < depth; k++ {
				class := "K" + string(rune('0'+c)) + string(rune('0'+k))
				if err := rt.Insert(&sched.Task{
					Class: class,
					Label: chainLabel(c, k),
					Func:  tk.SimTask(class),
					Args:  []sched.Arg{sched.RW(h)},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	insert(e)
	e.Barrier()
	e.Shutdown()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	dag := captureOf(t, "chains", workers, insert)
	direct := sim.Trace()

	replayed, err := Run(dag, Options{Workers: workers, Model: model, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(replayed.Events); i++ {
		if replayed.Events[i].End == replayed.Events[i-1].End {
			t.Fatalf("tasks %q and %q complete together: the direct run is not deterministic per label",
				replayed.Events[i-1].Label, replayed.Events[i].Label)
		}
	}
	if got, want := replayed.Makespan(), direct.Makespan(); math.Abs(got-want) > 1e-12 {
		t.Errorf("replay makespan %g != direct %g", got, want)
	}
	if len(replayed.Events) != len(direct.Events) {
		t.Fatalf("replay has %d events, direct %d", len(replayed.Events), len(direct.Events))
	}
	type span struct{ start, end float64 }
	want := make(map[string]span, len(direct.Events))
	for _, ev := range direct.Events {
		want[ev.Label] = span{ev.Start, ev.End}
	}
	for _, ev := range replayed.Events {
		w, ok := want[ev.Label]
		if !ok {
			t.Fatalf("replay ran unknown task %q", ev.Label)
		}
		if math.Abs(ev.Start-w.start) > 1e-12 || math.Abs(ev.End-w.end) > 1e-12 {
			t.Errorf("task %q: replay [%g,%g] != direct [%g,%g]", ev.Label, ev.Start, ev.End, w.start, w.end)
		}
	}
	if v := replayed.Validate(); len(v) != 0 {
		t.Errorf("replayed trace has %d physical violations: %+v", len(v), v[0])
	}
}

func chainLabel(c, k int) string {
	return "c" + string(rune('0'+c)) + "." + string(rune('0'+k))
}

// TestReplaySeedDeterminism: identical seeds give bit-identical traces;
// distinct seeds give distinct samples.
func TestReplaySeedDeterminism(t *testing.T) {
	dag, _ := captureRun(t, core.FixedModel(1e-3), 3)
	model := jitterModel{base: 1e-3}
	opts := Options{Workers: 4, Model: model, Seed: 11}
	a, err := Run(dag, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(dag, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("same seed produced different traces")
	}
	c, err := Run(dag, Options{Workers: 4, Model: model, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Error("different seeds produced identical traces")
	}
	if v := a.Validate(); len(v) != 0 {
		t.Errorf("replayed trace has violations: %+v", v[0])
	}
}

// TestReplayWorkerScaling: more workers never exceed the serial makespan,
// and every width yields a physically consistent trace with all tasks.
func TestReplayWorkerScaling(t *testing.T) {
	dag, _ := captureRun(t, core.FixedModel(1e-3), 5)
	serial, err := Run(dag, Options{Workers: 1, Model: core.FixedModel(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		tr, err := Run(dag, Options{Workers: w, Model: core.FixedModel(1e-3)})
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Events) != len(dag.Tasks) {
			t.Fatalf("workers=%d: %d events, want %d", w, len(tr.Events), len(dag.Tasks))
		}
		if tr.Makespan() > serial.Makespan()+1e-12 {
			t.Errorf("workers=%d: makespan %g exceeds serial %g", w, tr.Makespan(), serial.Makespan())
		}
		if v := tr.Validate(); len(v) != 0 {
			t.Errorf("workers=%d: trace violations: %+v", w, v[0])
		}
	}
}

// TestRunRejectsMissingModel: a frame holds no durations, so a replay
// with no model has nothing to run: Run, RunArena, Makespan and Digest
// error, on a capture and on a hand-built DAG alike.
func TestRunRejectsMissingModel(t *testing.T) {
	dag, _ := captureRun(t, core.FixedModel(1e-3), 5)
	for name, d := range map[string]*DAG{
		"capture":    dag,
		"hand-built": {Workers: 1, Tasks: []Task{{Class: "K", Label: "k"}}},
	} {
		if _, err := Run(d, Options{Workers: 2}); err == nil {
			t.Errorf("%s: Run accepted a replay with no model", name)
		}
		a, err := d.Arena()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Makespan(a, Options{}); err == nil {
			t.Errorf("%s: Makespan accepted a replay with no model", name)
		}
		if _, _, err := Digest(a, Options{}); err == nil {
			t.Errorf("%s: Digest accepted a replay with no model", name)
		}
	}
}

// TestCaptureRefusesWhatReplayCannotRun: a replay runs every task on one
// CPU worker, so the capture runtime refuses a gang task and a task only
// an accelerator may run at Insert. The refusal ends the capture: later
// inserts, DAG and Arena return an error. A capture that DAG has finished
// refuses further inserts and keeps the graph it had.
func TestCaptureRefusesWhatReplayCannotRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		task sched.Task
	}{
		{"gang", sched.Task{NumThreads: 2}},
		{"accelerator-only", sched.Task{Where: sched.OnAccelerator}},
	} {
		c := NewCapture(tc.name, 2)
		h := new(int)
		odd := tc.task
		odd.Class, odd.Label, odd.Args = "ODD", "odd", []sched.Arg{sched.RW(h)}
		if err := c.Insert(&sched.Task{Class: "K", Label: "k0", Args: []sched.Arg{sched.RW(h)}}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := c.Insert(&odd); err == nil {
			t.Errorf("%s: Insert accepted the task", tc.name)
		}
		if err := c.Insert(&sched.Task{Class: "K", Label: "k2", Args: []sched.Arg{sched.R(h)}}); err == nil {
			t.Errorf("%s: Insert after the refusal accepted a task", tc.name)
		}
		if c.Err() == nil {
			t.Errorf("%s: Err is nil after the refusal", tc.name)
		}
		if a, err := c.Arena(); err == nil {
			t.Errorf("%s: the capture returned an arena of %d tasks", tc.name, a.NumTasks())
		}
		if _, err := c.DAG(); err == nil {
			t.Errorf("%s: the capture returned a view", tc.name)
		}
	}

	c := NewCapture("finished", 1)
	h := new(int)
	for i := 0; i < 3; i++ {
		if err := c.Insert(&sched.Task{Class: "K", Label: fmt.Sprint("k", i), Args: []sched.Arg{sched.RW(h)}}); err != nil {
			t.Fatal(err)
		}
	}
	dag, err := c.DAG()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(&sched.Task{Class: "LATE", Label: "late"}); err == nil {
		t.Error("Insert after DAG() accepted a task")
	}
	arena, err := c.Arena()
	if err != nil {
		t.Fatal(err)
	}
	if compiled, _ := dag.Arena(); compiled != arena || arena.NumTasks() != 3 {
		t.Errorf("Arena() after DAG() returned %p of %d tasks, want the view's arena %p of 3", arena, arena.NumTasks(), compiled)
	}
}

// chainArgs is task i's arguments in the chains below: read one handle
// and update another (two footprints and up to two dependences per task).
func chainArgs(i int, a, b *int) []sched.Arg {
	if i%3 == 0 {
		return []sched.Arg{sched.RW(a), sched.R(b)}
	}
	return []sched.Arg{sched.R(a), sched.RW(b)}
}

// passChain captures n chain tasks in a Pass told to expect tasks tasks,
// args arguments and labelBytes bytes of class and label strings.
func passChain(t *testing.T, n, tasks, args, labelBytes int) *Arena {
	t.Helper()
	p := NewPass("chain", 1, tasks, args, labelBytes)
	a, b := new(int), new(int)
	for i := 0; i < n; i++ {
		if err := p.Task("K", []byte(fmt.Sprint("k", i)), 0, chainArgs(i, a, b)); err != nil {
			t.Fatal(err)
		}
	}
	arena, err := p.Arena()
	if err != nil {
		t.Fatal(err)
	}
	return arena
}

// chainStringBytes is the labelBytes of n tasks of class "K" labelled k0,
// k1, ...: the string bytes a capture of them interns beside its label.
func chainStringBytes(n int) int {
	b := len("K")
	for i := 0; i < n; i++ {
		b += len(fmt.Sprint("k", i))
	}
	return b
}

// TestPassSizingAndSlabs: the columns are pre-sized by NewPass, and the
// capture must not depend on how much was announced — nothing, too little
// (columns regrow mid-stream, each on its own), or exactly. The view's
// per-task lists are clipped slabs.
func TestPassSizingAndSlabs(t *testing.T) {
	const n = 300
	want := passChain(t, n, 0, 0, 0).DAG()
	if err := want.Validate(); err != nil {
		t.Fatal(err)
	}
	strBytes := chainStringBytes(n)
	for _, r := range []struct{ tasks, args, bytes int }{{1, 1, 1}, {n, 2 * n, strBytes}} {
		if got := passChain(t, n, r.tasks, r.args, r.bytes).DAG(); !reflect.DeepEqual(got.Tasks, want.Tasks) {
			t.Errorf("NewPass sized (%d, %d, %d) changed the captured graph", r.tasks, r.args, r.bytes)
		}
	}
	// Appending to one task's lists must not spill into its neighbour's.
	dag := passChain(t, n, n, 2*n, strBytes).DAG()
	next := dag.Tasks[6].Footprint[0]
	_ = append(dag.Tasks[5].Footprint, Footprint{Handle: 99})
	if dag.Tasks[6].Footprint[0] != next {
		t.Error("append to a task's footprint overwrote the next task's")
	}
}

// TestExactReserveKeepsOneStringRegion: a pass told its sizes writes every
// class and label into the buffer NewPass made — never regrown — and the
// finished arena's frame is that buffer, its strings a region of it.
func TestExactReserveKeepsOneStringRegion(t *testing.T) {
	const n = 200
	strBytes := chainStringBytes(n)
	p := NewPass("labels", 1, n, 0, strBytes)
	region := unsafe.SliceData(p.b.buf)
	for i := 0; i < n; i++ {
		if err := p.Task("K", []byte(fmt.Sprint("k", i)), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	a, err := p.Arena()
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(a.Frame()) != region || len(a.strs) != strBytes+len("labels") {
		t.Errorf("buffer regrown or string region mis-sized: %d bytes, want %d in the reserved buffer", len(a.strs), strBytes+len("labels"))
	}
	if hostLittleEndian && !a.AliasesFrame() {
		t.Error("the arena's columns do not lie inside its frame")
	}
}

// drawsFor is a model constant per class except for class draw, whose
// duration draws from the stream.
type drawsFor struct{ draw string }

func (m drawsFor) Duration(class string, _ sched.WorkerKind, src *rng.Source) float64 {
	if class == m.draw {
		return src.Float64()
	}
	return float64(len(class))
}

// TestSeedFreeProbesEveryClass: a model is seed-free only if it draws for
// none of the frame's classes, whether they fit the probe's fixed set or
// overflow it into the per-string bitmap.
func TestSeedFreeProbesEveryClass(t *testing.T) {
	const classes = 12
	p := NewPass("classes", 1, 3*classes, 3*classes, 0)
	a, b := new(int), new(int)
	for i := 0; i < 3*classes; i++ {
		if err := p.Task(fmt.Sprint("C", i%classes), []byte(fmt.Sprint("t", i)), 0, chainArgs(i, a, b)); err != nil {
			t.Fatal(err)
		}
	}
	arena, err := p.Arena()
	if err != nil {
		t.Fatal(err)
	}
	if !SeedFree(arena, drawsFor{}) {
		t.Error("a constant per-class model is not seed-free")
	}
	for _, class := range []string{"C0", "C7", "C8", "C11"} {
		if SeedFree(arena, drawsFor{class}) {
			t.Errorf("a model drawing for %s is seed-free", class)
		}
	}
}
