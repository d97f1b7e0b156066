package replay

// An independent oracle for the serial executor's schedule: list
// scheduling written the plainest way that can be read against Run's
// contract — two sorted slices, a bool per worker, fresh allocations
// everywhere, no arena, no heap, no bitmap. It shares no code with the
// executor (nor with arena_gate_test's refRun, which is the pre-arena loop
// and still heap-based), so agreement on trace.Fingerprint pins the ready
// order (priority desc, readiness order asc) and the Task Execution Queue
// order (end asc, start order asc) rather than an implementation of them.

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"supersim/internal/core"
	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/trace"
)

func oracleRun(d *DAG, opt Options) *trace.Trace {
	type readyTask struct{ id, prio, seq int }
	type runningTask struct {
		end, start      float64
		seq, id, worker int
	}
	n := len(d.Tasks)
	workers := opt.Workers
	if workers <= 0 {
		workers = max(d.Workers, 1)
	}
	label := opt.Label
	if label == "" {
		label = d.Label + "-replay"
	}
	waits := make([]int, n)
	succs := make([][]int, n)
	for i, t := range d.Tasks {
		waits[i] = len(t.Deps)
		for _, dep := range t.Deps {
			succs[dep.Pred] = append(succs[dep.Pred], i)
		}
	}

	var (
		ready    []readyTask   // sorted: priority desc, then seq asc
		running  []runningTask // sorted: end asc, then seq asc
		busy     = make([]bool, workers)
		sources  = make([]*rng.Source, workers)
		clock    float64
		readySeq int
		startSeq int
	)
	release := func(id int) {
		prio := d.Tasks[id].Priority
		if opt.IgnorePriorities {
			prio = 0
		}
		at := len(ready) // the newest seq goes behind everything of its priority
		for at > 0 && ready[at-1].prio < prio {
			at--
		}
		ready = append(ready, readyTask{})
		copy(ready[at+1:], ready[at:])
		ready[at] = readyTask{id: id, prio: prio, seq: readySeq}
		readySeq++
	}
	start := func(w int) {
		id := ready[0].id
		ready = ready[1:]
		dur := d.Tasks[id].Duration
		if opt.Model != nil {
			if sources[w] == nil {
				sources[w] = rng.New(opt.Seed ^ (0x9e3779b97f4a7c15 * (uint64(w) + 1)))
			}
			dur = math.Max(0, opt.Model.Duration(d.Tasks[id].Class, sched.KindCPU, sources[w]))
		}
		e := runningTask{end: clock + dur, start: clock, seq: startSeq, id: id, worker: w}
		startSeq++
		busy[w] = true
		at := len(running) // the newest seq goes behind everything ending no later
		for at > 0 && running[at-1].end > e.end {
			at--
		}
		running = append(running, runningTask{})
		copy(running[at+1:], running[at:])
		running[at] = e
	}
	fill := func() { // remaining ready tasks go to the lowest idle workers
		for w := 0; w < workers && len(ready) > 0; w++ {
			if !busy[w] {
				start(w)
			}
		}
	}

	for id := range d.Tasks {
		if waits[id] == 0 {
			release(id)
		}
	}
	fill()
	tr := trace.New(label, workers)
	for len(running) > 0 {
		e := running[0]
		running = running[1:]
		clock = math.Max(clock, e.end)
		tr.Append(trace.Event{
			Worker: e.worker, Class: d.Tasks[e.id].Class, Label: d.Tasks[e.id].Label,
			TaskID: e.id, Start: e.start, End: e.end,
		})
		for _, s := range succs[e.id] {
			if waits[s]--; waits[s] == 0 {
				release(s)
			}
		}
		busy[e.worker] = false
		if len(ready) > 0 {
			start(e.worker) // the completing task's worker takes the best ready task
		}
		fill()
	}
	return tr
}

// layeredDAG draws a random layered graph in the manner of Beránek et
// al.'s scheduler-benchmark generator: layers of random width, each task
// depending on up to three tasks of the two layers before it. Priorities
// come from prio; durations are multiples of 1e-4 so captured-duration
// replays tie often.
func layeredDAG(n, maxWidth int, seed uint64, prio func(src *rng.Source) int) *DAG {
	src := rng.New(seed)
	d := &DAG{Label: "layered", Workers: 4, Handles: 1, Tasks: make([]Task, 0, n)}
	prevLo, lo := 0, 0 // [prevLo, lo) are the two layers before the one being drawn
	for len(d.Tasks) < n {
		width := min(1+src.Intn(maxWidth), n-len(d.Tasks))
		first := len(d.Tasks)
		for k := 0; k < width; k++ {
			t := Task{
				ID: len(d.Tasks), Class: "K", Label: fmt.Sprintf("t%d", len(d.Tasks)),
				Priority: prio(src), Duration: float64(1+src.Intn(4)) * 1e-4,
			}
			if first > prevLo {
				for j := src.Intn(4); j > 0; j-- {
					t.Deps = append(t.Deps, sched.Dep{Pred: prevLo + src.Intn(first-prevLo)})
				}
			}
			d.Tasks = append(d.Tasks, t)
		}
		prevLo, lo = lo, first
	}
	return d
}

// oraclePriorities are the priority columns that stress the ready
// structure: one region; the tile algorithms' three; more levels than one
// bitmap word; more than two bitmap layers' worth, dense (counting
// derivation) and spread over all of int32 (sort derivation); and a
// handful of sparse values including both extremes.
var oraclePriorities = []struct {
	name   string
	tasks  int
	levels int // distinct values the column must produce, 0 = don't check
	prio   func(src *rng.Source) int
}{
	{"one", 1500, 1, func(*rng.Source) int { return 7 }},
	{"three", 1500, 3, func(src *rng.Source) int { return src.Intn(3) }},
	{"hundred", 1500, 100, func(src *rng.Source) int { return 50 - src.Intn(100) }},
	{"dense5000", 12000, 0, func(src *rng.Source) int { return src.Intn(5000) - 2500 }},
	{"spread", 6000, 0, func(src *rng.Source) int { return int(int32(src.Uint64())) }},
	{"extremes", 1500, 5, func(src *rng.Source) int {
		return []int{math.MinInt32, -3, 0, 1 << 20, math.MaxInt32}[src.Intn(5)]
	}},
}

func TestSerialReplayMatchesOracle(t *testing.T) {
	models := []struct {
		name  string
		model core.DurationModel
	}{
		{"fixed", core.FixedModel(1e-3)}, // every running task ends together
		{"stochastic", jitterModel{base: 1e-3}},
		{"captured", nil},
	}
	for pi, p := range oraclePriorities {
		if testing.Short() && p.tasks > 2000 {
			continue
		}
		dag := layeredDAG(p.tasks, 40, uint64(pi)+1, p.prio)
		arena, err := dag.Arena()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		checkLevels(t, arena)
		levels := len(arena.levelPrio)
		if p.levels != 0 && levels != p.levels {
			t.Fatalf("%s: %d priority levels, want %d", p.name, levels, p.levels)
		}
		if p.levels == 0 && levels <= 4096 {
			t.Fatalf("%s: %d priority levels, want more than 4096 (three bitmap layers)", p.name, levels)
		}
		loaded, err := Load(arena.Encode())
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		checkLevels(t, loaded)
		for _, workers := range []int{1, 2, 7, 64} {
			for _, fifo := range []bool{false, true} {
				for _, m := range models {
					opt := Options{Workers: workers, Model: m.model, Seed: 5, IgnorePriorities: fifo}
					name := fmt.Sprintf("%s/w%d/fifo=%v/%s", p.name, workers, fifo, m.name)
					oracle := oracleRun(dag, opt)
					want := oracle.Fingerprint()
					got, err := Run(dag, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got.Fingerprint() != want {
						t.Errorf("%s: fingerprint %#x, oracle %#x", name, got.Fingerprint(), want)
					}
					if v := got.Validate(); len(v) != 0 {
						t.Errorf("%s: %d physical violations: %+v", name, len(v), v[0])
					}
					viaFrame, err := RunArena(loaded, opt)
					if err != nil {
						t.Fatalf("%s: loaded: %v", name, err)
					}
					if viaFrame.Fingerprint() != want {
						t.Errorf("%s: loaded frame fingerprint %#x, oracle %#x", name, viaFrame.Fingerprint(), want)
					}
					// The trace-free form of the same run: the digest the loop
					// folds as it completes tasks is the oracle trace's.
					ms, fp, err := Digest(loaded, opt)
					if err != nil {
						t.Fatalf("%s: Digest: %v", name, err)
					}
					if fp != want || math.Float64bits(ms) != math.Float64bits(oracle.Makespan()) {
						t.Errorf("%s: Digest = (%v, %#x), oracle trace has (%v, %#x)", name, ms, fp, oracle.Makespan(), want)
					}
				}
			}
		}
	}
}

// TestPriorityOutsideInt32IsRefused: the priority column is int32, and a
// priority stored truncated would rank its task differently than the
// engine's policy — and the oracle above, which compares the ints — does:
// 1<<31 wraps to the lowest priority there is. Both ways of filling the
// column must refuse such a task rather than replay a different schedule.
func TestPriorityOutsideInt32IsRefused(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int is int32 here: every priority fits")
	}
	one := int64(1)
	for _, p := range []int{int(one << 31), int(-one<<31 - 1), int(one<<40 + 5)} { // would wrap to MinInt32, MaxInt32, 5
		dag := layeredDAG(50, 5, 3, func(*rng.Source) int { return 1 })
		dag.Tasks[7].Priority = p
		if a, err := BuildArena(dag); err == nil {
			t.Errorf("BuildArena stored priority %d as %d", p, a.priority[7])
		}
		if _, err := Run(dag, Options{Workers: 2}); err == nil {
			t.Errorf("Run replayed a DAG holding priority %d", p)
		}

		e, err := sched.NewEngine(sched.Config{Workers: 1, Policy: sched.NewPriorityPolicy(), Name: "wide"})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Attach(e, "wide")
		if err != nil {
			t.Fatal(err)
		}
		for _, prio := range []int{0, p, 3} {
			if err := e.Insert(&sched.Task{Class: "K", Label: "k", Priority: prio, Func: func(*sched.Ctx) {}}); err != nil {
				t.Fatal(err)
			}
		}
		e.Barrier()
		e.Shutdown()
		if a, err := rec.Arena(); err == nil {
			t.Errorf("capture stored priority %d as %d", p, a.priority[1])
		}
		if _, err := rec.DAG(); err == nil {
			t.Errorf("capture holding priority %d has a view", p)
		}
	}
}

// checkLevels asserts the level tables partition the priority column:
// strictly ascending distinct values, region sizes equal to the level
// populations.
func checkLevels(t *testing.T, a *Arena) {
	t.Helper()
	pops := make(map[int32]int32)
	for _, p := range a.priority {
		pops[p]++
	}
	if len(a.levelPrio) != len(pops) || len(a.levelOff) != len(pops)+1 {
		t.Fatalf("level tables hold %d values and %d offsets for %d distinct priorities",
			len(a.levelPrio), len(a.levelOff), len(pops))
	}
	if a.levelOff[0] != 0 || int(a.levelOff[len(pops)]) != a.n {
		t.Fatalf("level regions span [%d,%d), want [0,%d)", a.levelOff[0], a.levelOff[len(pops)], a.n)
	}
	for l, p := range a.levelPrio {
		if l > 0 && a.levelPrio[l-1] >= p {
			t.Fatalf("level values not strictly ascending at %d: %d, %d", l, a.levelPrio[l-1], p)
		}
		if got := a.levelOff[l+1] - a.levelOff[l]; got != pops[p] {
			t.Fatalf("level %d (priority %d) has %d slots for %d tasks", l, p, got, pops[p])
		}
		if a.level(p) != int32(l) {
			t.Fatalf("level(%d) = %d, want %d", p, a.level(p), l)
		}
	}
}

// TestLoadManyLevelsIsNotQuadratic: a frame from disk or a peer may carry
// as many distinct priorities as tasks, in any order. Deriving the levels
// by insertion into a sorted table would move ~n²/4 entries — 10¹⁰ for this
// frame, tens of seconds; the budget is generous for one sort and hopeless
// for that.
func TestLoadManyLevelsIsNotQuadratic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200k-task frame")
	}
	const n = 200_000
	d := &DAG{Label: "levels", Workers: 4, Handles: 1, Tasks: make([]Task, n)}
	for i := range d.Tasks {
		// A bijection on uint32: n distinct values in scrambled order.
		d.Tasks[i] = Task{ID: i, Class: "K", Label: "k", Duration: 1e-4,
			Priority: int(int32(uint32(i) * 2654435761))}
	}
	built, err := BuildArena(d)
	if err != nil {
		t.Fatal(err)
	}
	frame := built.Encode()
	t0 := time.Now()
	a, err := Load(frame)
	took := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.levelPrio) != n {
		t.Fatalf("%d levels, want %d", len(a.levelPrio), n)
	}
	if budget := 2 * time.Second; took > budget {
		t.Errorf("Load of %d distinct priorities took %v, budget %v", n, took, budget)
	}
	ms, err := runArenaSerial(a, &Options{Workers: 3}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Ceil(n/3.0) * 1e-4; math.Abs(ms-want) > 1e-9 {
		t.Errorf("makespan %g, want %g", ms, want)
	}
}

// refSuccessors is the successor CSR as the arena built it before it
// filled the regions back to front: counts in a scratch column, then a
// forward fill through per-task cursors.
func refSuccessors(a *Arena) (off, list []int32) {
	n := a.n
	off = make([]int32, n+1)
	list = make([]int32, len(a.depPred))
	scratch := make([]int32, n)
	for _, p := range a.depPred {
		scratch[p]++
	}
	sum := int32(0)
	for i := 0; i < n; i++ {
		off[i] = sum
		sum += scratch[i]
		scratch[i] = off[i]
	}
	off[n] = sum
	for i := 0; i < n; i++ {
		for _, p := range a.depPred[a.depOff[i]:a.depOff[i+1]] {
			list[scratch[p]] = int32(i)
			scratch[p]++
		}
	}
	return off, list
}

// TestDerivedViewsMatchReference: the successor CSR the arena fills with
// its own offsets as cursors equals the scratch-column construction it
// replaced, and the PDES plan lays task t on lane t mod workers in id
// order — on random layered DAGs whose last layer has no successors and on
// one with no edges at all. One pooled plan serves every case, larger and
// smaller, as the pool would.
func TestDerivedViewsMatchReference(t *testing.T) {
	const workers = 3
	pl := &pdesPlan{}
	for seed := uint64(1); seed <= 6; seed++ {
		n := []int{700, 40}[seed%2]
		dag := layeredDAG(n, 12, seed, func(src *rng.Source) int { return src.Intn(3) })
		if seed == 6 {
			for i := range dag.Tasks {
				dag.Tasks[i].Deps = nil
			}
		}
		a, err := BuildArena(dag)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		off, list := refSuccessors(a)
		if !slices.Equal(a.succOff, off) || !slices.Equal(a.succList, list) {
			t.Errorf("seed %d: successor CSR differs from the scratch construction", seed)
		}
		if err := pl.build(a, &Options{}, workers); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var want []int32
		for w := int32(0); w < workers; w++ {
			for id := w; id < int32(n); id += workers {
				want = append(want, id)
			}
		}
		if !slices.Equal(pl.laneTasks, want) {
			t.Errorf("seed %d: lanes %v, want each task on lane id mod %d in id order", seed, pl.laneTasks, workers)
		}
	}
}
