package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"supersim/internal/factor"
	"supersim/internal/replay"
	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/workload"
)

// TestCaptureFrameSameOverShapesAndMatrices pins the claim the data-free
// capture path rests on: the .dag frame CaptureArena writes from the
// algorithm's generator, which names tiles by index and holds none, equals
// byte for byte the frame of a live engine run over the generated
// matrices the same spec would factor. Frames carry labels, classes,
// priorities, footprints and dependences, so equal bytes mean equal
// fingerprints on every replay.
func TestCaptureFrameSameOverShapesAndMatrices(t *testing.T) {
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		for _, schedName := range Schedulers {
			for _, size := range []struct{ nt, nb int }{{3, 4}, {7, 16}} {
				spec := Spec{Algorithm: alg, Scheduler: schedName, NT: size.nt, NB: size.nb, Workers: 3, Seed: 5}
				shapeOps, err := Ops(spec)
				if err != nil {
					t.Fatal(err)
				}
				a, tm := workload.ForAlgorithm(alg, size.nt, size.nb, spec.Seed)
				dataOps, err := factor.Stream(alg, a, tm)
				if err != nil {
					t.Fatal(err)
				}
				captured, err := CaptureArena(spec)
				if err != nil {
					t.Fatal(err)
				}
				oneWorker := spec
				oneWorker.Workers = 1
				rt, err := NewRuntime(oneWorker)
				if err != nil {
					t.Fatal(err)
				}
				overData, err := engineCapture(rt, captured.Label(), spec.Workers, func(rt sched.Runtime) error {
					return factor.Insert(rt, nil, alg, a, tm, func(_ *factor.Task, t *sched.Task) { t.Func = noopTask })
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(captured.Encode(), overData.Encode()) {
					t.Errorf("%s/%s nt=%d nb=%d: the capture's frame differs from the engine's over matrices", alg, schedName, size.nt, size.nb)
				}
				// The data-backed stream is the one that can execute;
				// the shape-backed one must say so rather than no-op.
				if err := factor.RunSequential(dataOps); err != nil {
					t.Errorf("%s nt=%d: data-backed stream failed: %v", alg, size.nt, err)
				}
				if err := factor.RunSequential(shapeOps); err == nil || !strings.Contains(err.Error(), "shape-only") {
					t.Errorf("%s nt=%d: executing a shape-only stream returned %v, want an error naming the misuse", alg, size.nt, err)
				}
			}
		}
	}
}

// allocated reports the heap bytes and objects one call of f allocates.
// Other goroutines of the test process (runtimes of earlier tests winding
// down) allocate too, which can only add to a reading: the smallest of a
// few readings, each averaged over a few calls, is the one to trust.
func allocated(f func()) (bytes, objects float64) {
	const readings, calls = 4, 5
	f() // warm pools and lazily initialised state
	bytes, objects = math.Inf(1), math.Inf(1)
	for r := 0; r < readings; r++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/calls)
		objects = min(objects, float64(after.Mallocs-before.Mallocs)/calls)
	}
	return bytes, objects
}

// TestOpsAllocationIndependentOfNB: an op stream names tiles, it does not
// hold them, so its cost is a function of NT alone. At the parent of this
// change nb=256 cost 2000x the bytes of nb=8 (the discarded input matrix).
func TestOpsAllocationIndependentOfNB(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		var got [2]float64
		for i, nb := range []int{8, 256} {
			spec := Spec{Algorithm: alg, Scheduler: "quark", NT: 8, NB: nb, Workers: 4, Seed: 1}
			got[i], _ = allocated(func() {
				if _, err := Ops(spec); err != nil {
					t.Fatal(err)
				}
			})
		}
		if math.Abs(got[1]-got[0]) > 0.01*got[0] {
			t.Errorf("%s: Ops allocates %.0f B at nb=8 and %.0f B at nb=256, want equal within 1%%", alg, got[0], got[1])
		}
	}
}

// Ceilings for one steady-state CaptureArena, per captured task and with
// the finished arena included: cholesky nt=16 (816 tasks) through QUARK,
// 0.02 objects and 87 B, and through StarPU's eager policy at nt=32
// (5 984 tasks: serve-miss's dominant shape), 0.00 objects and 89 B.
// Bytes are set 10 % above the larger; objects get more room. What is left
// per task is the arena: its frame, which holds the task's row and label,
// and the successor lists. The capture builds no op stream, and the pass
// takes its hazard tracker and its intern slots from pools of their own;
// no runtime runs.
// History: 19.9 objects and 3.97 KB per task while the capture generated
// its input matrix, rendered labels by repeated concatenation and recorded
// one slice per footprint and per dependence list; 6.3 objects and 1.14 KB
// while it recorded a pointer DAG and compiled the arena from it; 2.8
// objects and 768 B (767 B for the StarPU case) while every capture
// allocated its op stream, task slabs and intern map afresh; 2.8 objects
// and 293 B (2.1 and 288 B) while the engine grew a successor slice per
// predecessor and the tracker a state and a reader slice per handle, and
// both started from nothing on every run; 0.24 objects and 172 B (0.10 and
// 153 B) while a 1-worker engine run, with its labels string and handle
// ids, made every capture; 0.22 objects and 136 B (0.09 and 119 B) while
// the capture also ran each runtime's ready policy over the graph and the
// frame held its ready order; 0.19 objects and 118 B (0.09 and 108 B,
// ceiling 130 B) while each capture built its op stream over tile shapes
// from a factor.Buffers shared with the direct simulation and hashed every
// handle and label. TestSimulatedAllocatesItsTrace holds the direct run
// to ceilings of its own.
const (
	captureObjectsPerTaskCeiling = 0.4
	captureBytesPerTaskCeiling   = 98
)

func TestCaptureSpecAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// One P, so that each capture finds the buffers the previous one put
	// back: a sync.Pool keeps a per-P slot only its own P reads, and a
	// capture parks at its barrier and may resume on another P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, spec := range []Spec{
		{Algorithm: "cholesky", Scheduler: "quark", NT: 16, NB: 32, Workers: 4, Seed: 1},
		{Algorithm: "cholesky", Scheduler: "starpu", NT: 32, NB: 20, Workers: 8, Seed: 1},
	} {
		tasks := 0
		bytes, objects := allocated(func() {
			arena, err := CaptureArena(spec)
			if err != nil {
				t.Fatal(err)
			}
			tasks = arena.NumTasks()
		})
		perTask := fmt.Sprintf("%s nt=%d: %.2f objects and %.0f B per task over %d tasks", spec.Scheduler, spec.NT, objects/float64(tasks), bytes/float64(tasks), tasks)
		if objects/float64(tasks) > captureObjectsPerTaskCeiling || bytes/float64(tasks) > captureBytesPerTaskCeiling {
			t.Errorf("CaptureArena allocates %s, ceilings %.1f and %d", perTask, captureObjectsPerTaskCeiling, captureBytesPerTaskCeiling)
		}
		t.Log(perTask)
	}
}

// captureFrameRatioCeiling bounds what serve-miss's captures allocate, as
// the capture cache stores them, against the bytes of their .dag frames:
// keySpecs' six captures (cholesky nt=32, 484 738 B frames over 5 984
// tasks) together. The cache keeps the arena CaptureArena returns and
// writes its Frame() through, so the frame is most of it; the rest is the
// successor lists and what the sections left unused (the dependence
// columns get the room of the footprints). Measured at 1.22x and set 10 %
// above. History: 1.33x (ceiling 1.45x) while each capture also built its
// op stream over tile shapes; 1.35x (1.31x to
// 1.33x each, 1.48x for starpu-dm, whose cost-model queue grew as the
// stream went in) while the capture ran each runtime's ready policy and
// the frame held its ready order; 2.35x (7.60 MB for the same
// 3.23 MB of frames) while the builder filled column slabs and the cache
// encoded them into a frame of their own, the slabs then dropped.
const captureFrameRatioCeiling = 1.34

func TestCaptureAsCachedAllocatesItsFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // pool hits, as in TestCaptureSpecAllocCeilings
	frames := 0
	bytes, _ := allocated(func() {
		frames = 0
		for _, spec := range keySpecs() {
			arena, err := CaptureArena(spec)
			if err != nil {
				t.Fatal(err)
			}
			frames += len(arena.Frame())
		}
	})
	got := fmt.Sprintf("%.0f B for %d B of frames, %.2fx", bytes, frames, bytes/float64(frames))
	if bytes > captureFrameRatioCeiling*float64(frames) {
		t.Errorf("serve-miss's captures as the cache stores them allocate %s, ceiling %.2fx", got, captureFrameRatioCeiling)
	}
	t.Log(got)
}

// TestConcurrentCapturesMatchSerial: captures recycle their scratch — the
// pass's hazard tracker and intern slots through replay's pools — so
// scratch that went back while its capture still used it
// would let a concurrent capture zero and overwrite a live stream. Eight
// goroutines capture a seeded mix of small and large specs, so pooled
// memory shrinks and grows between uses, and every frame must equal, byte
// for byte, a serial capture of the same spec. The serial captures share
// the pools too, so they are held to frames no pool produced: the golden
// specs to their golden digests, and the whole set to
// concurrentRefsDigest. The captures keep a deadline as a backstop.
func TestConcurrentCapturesMatchSerial(t *testing.T) {
	const goroutines, rounds = 8, 25
	golden := goldenSpecs()
	names := make([]string, 0, len(golden))
	for name := range golden {
		names = append(names, name)
	}
	slices.Sort(names)
	src := rng.New(29)
	draws := make([][]Spec, goroutines)
	type key struct {
		algorithm, scheduler, policy string
		nt, workers                  int
	}
	keyOf := func(s Spec) key { return key{s.Algorithm, s.Scheduler, s.Policy, s.NT, s.Workers} }
	want := make(map[key][]byte)
	goldenAlg := make(map[key]string)
	for g := range draws {
		for r := 0; r < rounds; r++ {
			name := names[src.Intn(len(names))]
			spec := golden[name]
			if src.Intn(3) != 0 {
				c := keyConfigs[src.Intn(len(keyConfigs))]
				spec = Spec{Algorithm: "cholesky", Scheduler: c.scheduler, Policy: c.policy, NT: 2 + src.Intn(31), NB: 8, Workers: 8, Seed: 1}
			} else {
				goldenAlg[keyOf(spec)] = spec.Algorithm
			}
			draws[g] = append(draws[g], spec)
			if want[keyOf(spec)] == nil {
				arena, err := CaptureArena(spec)
				if err != nil {
					t.Fatal(err)
				}
				want[keyOf(spec)] = arena.Encode()
			}
		}
	}
	refs := make([]string, 0, len(want))
	frames := make(map[string][]byte)
	for k, frame := range want {
		ref := fmt.Sprintf("%s/%s-%s nt=%d w=%d", k.algorithm, k.scheduler, k.policy, k.nt, k.workers)
		refs = append(refs, ref)
		frames[ref] = frame
		if alg, ok := goldenAlg[k]; ok {
			if got := fmt.Sprintf("%x", sha256.Sum256(frame))[:16]; got != goldenFrameDigests[alg] {
				t.Errorf("%s: the serial reference frame has digest %s, golden %s", ref, got, goldenFrameDigests[alg])
			}
		}
	}
	slices.Sort(refs)
	sum := sha256.New()
	for _, ref := range refs {
		fmt.Fprintf(sum, "%s:%d:", ref, len(frames[ref]))
		sum.Write(frames[ref])
	}
	if got := fmt.Sprintf("%x", sum.Sum(nil))[:16]; got != concurrentRefsDigest {
		t.Fatalf("the %d serial reference frames digest to %s, want %s", len(refs), got, concurrentRefsDigest)
	}
	var wg sync.WaitGroup
	for g := range draws {
		wg.Add(1)
		go func(specs []Spec) {
			defer wg.Done()
			for _, spec := range specs {
				arena, err := CaptureArena(spec)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(arena.Encode(), want[keyOf(spec)]) {
					t.Errorf("%s/%s-%s nt=%d: a concurrent capture's frame differs from the serial one", spec.Algorithm, spec.Scheduler, spec.Policy, spec.NT)
				}
			}
		}(draws[g])
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("concurrent captures wedged: a capture's scratch was recycled while it used it?")
	}
}

// TestCaptureFrameIndependentOfNB: an op stream names tiles without holding
// them, so a captured frame does not depend on the tile size — the capture
// cache's key still carries nb, which makes keys that differ only in nb
// distinct entries holding the same frame.
func TestCaptureFrameIndependentOfNB(t *testing.T) {
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		for _, c := range keyConfigs {
			var first []byte
			for _, nb := range []int{1, 8, 40, 512} {
				arena, err := CaptureArena(Spec{Algorithm: alg, Scheduler: c.scheduler, Policy: c.policy, NT: 9, NB: nb, Workers: 8, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				frame := arena.Encode()
				if first == nil {
					first = frame
				} else if !bytes.Equal(frame, first) {
					t.Errorf("%s/%s-%s: the frame at nb=%d differs from the one at nb=1", alg, c.scheduler, c.policy, nb)
				}
			}
		}
	}
}

// TestCaptureFrameIndependentOfScheduler: every runtime resolves its
// hazards with the same tracker, and a frame holds only what the tracker
// resolved, so at equal replay width a captured frame does not depend on
// the scheduler, its policy, QUARK's window, StarPU's accelerators or dm's
// cost model. A capture cache keyed by algorithm and nt alone rests on
// this; if a runtime ever resolved hazards differently, this fails.
func TestCaptureFrameIndependentOfScheduler(t *testing.T) {
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		for _, nt := range []int{1, 4, 9, 16, 24} {
			base := Spec{Algorithm: alg, NT: nt, NB: 8, Workers: 8, Seed: 1}
			var specs []Spec
			for _, c := range keyConfigs {
				s := base
				s.Scheduler, s.Policy = c.scheduler, c.policy
				specs = append(specs, s)
			}
			for _, window := range []int{1, 4, 37} {
				s := base
				s.Scheduler, s.Window = "quark", window
				specs = append(specs, s)
			}
			acc := base
			acc.Scheduler, acc.NAccelerators = "starpu", 2
			dm := base
			dm.Scheduler, dm.Policy = "starpu", "dm"
			dm.CostModel = func(class string, _ sched.WorkerKind) float64 { return float64(len(class)) }
			specs = append(specs, acc, dm)
			var first []byte
			for _, spec := range specs {
				arena, err := CaptureArena(spec)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = arena.Encode()
				} else if !bytes.Equal(arena.Encode(), first) {
					t.Errorf("%s nt=%d: the %s-%s frame (window %d, %d accelerators) differs from the %s-%s one",
						alg, nt, spec.Scheduler, spec.Policy, spec.Window, spec.NAccelerators, specs[0].Scheduler, specs[0].Policy)
				}
			}
		}
	}
}

// concurrentRefsDigest is the digest of TestConcurrentCapturesMatchSerial's
// serial reference frames, each prefixed by its spec and length, in spec
// order. It was taken from the format-3 frames of the one-pass capture,
// whose serial references are also checked against goldenFrameDigests.
const concurrentRefsDigest = "0c8c5a41c736ac96"

// goldenFrameDigests are the leading 16 hex digits of the SHA-256 of the
// .dag frame of each algorithm's golden specs: one per algorithm, since a
// frame holds the graph and no runtime resolves it differently
// (TestCaptureFrameIndependentOfScheduler). A frame holds no
// floating-point result, so they hold on every platform.
var goldenFrameDigests = map[string]string{
	"cholesky": "0ab848086786990e", "qr": "20e6fc7017fa0d87", "lu": "c9e2a3c39163f0d4",
}

// goldenSpecs are the nine captures the golden tests pin: every algorithm
// through every runtime, StarPU under its priority policy.
func goldenSpecs() map[string]Spec {
	specs := make(map[string]Spec)
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		for _, sp := range []struct{ scheduler, policy string }{{"quark", ""}, {"starpu", "prio"}, {"ompss", ""}} {
			name := alg + "/" + sp.scheduler
			if sp.policy != "" {
				name += "-" + sp.policy
			}
			specs[name] = Spec{Algorithm: alg, Scheduler: sp.scheduler, Policy: sp.policy, NT: 6, NB: 8, Workers: 4, Seed: 1}
		}
	}
	return specs
}

// TestCaptureFramesGoldenAndRebuildable pins the capture format in
// absolute terms (goldenFrameDigests) and the two ways of filling it
// against each other: the columns a capture appends must be the columns
// BuildArena compiles from the capture's own view, byte for byte — unless
// the view was edited, which is what BuildArena is for.
func TestCaptureFramesGoldenAndRebuildable(t *testing.T) {
	for name, spec := range goldenSpecs() {
		arena, err := CaptureArena(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		frame := arena.Encode()
		if got := fmt.Sprintf("%x", sha256.Sum256(frame))[:16]; got != goldenFrameDigests[spec.Algorithm] {
			t.Errorf("%s: frame digest %s, golden %s", name, got, goldenFrameDigests[spec.Algorithm])
		}
		view := arena.DAG()
		if err := view.Validate(); err != nil {
			t.Errorf("%s: the capture's view does not validate: %v", name, err)
		}
		if seeded, err := view.Arena(); err != nil || seeded != arena {
			t.Errorf("%s: the view's compiled form is %p (%v), want the captured arena %p", name, seeded, err, arena)
		}
		rebuilt, err := replay.BuildArena(view)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(rebuilt.Encode(), frame) {
			t.Errorf("%s: BuildArena of the capture's view encodes differently from the capture", name)
		}
		view.Tasks[1].Priority += 7
		edited, err := replay.BuildArena(view)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bytes.Equal(edited.Encode(), frame) {
			t.Errorf("%s: BuildArena of an edited view encodes like the unedited capture", name)
		}
		if seeded, _ := view.Arena(); !bytes.Equal(seeded.Encode(), frame) {
			t.Errorf("%s: editing the view changed the arena it carries", name)
		}
	}
}

// TestLoadAllocatesOnlyDerivedViews pins what a frame costs once loaded:
// every column and string aliases the frame, so Load allocates the Arena,
// the successor CSR and the level tables (plus the default replay label) —
// at most 4·(n+1+e) bytes and 1 KB beside, in at most four objects. A
// string header per task, a PDES rank table or a scratch column would each
// break it.
func TestLoadAllocatesOnlyDerivedViews(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for name, spec := range goldenSpecs() {
		captured, err := CaptureArena(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		frame := captured.Encode()
		load := func() {
			if _, err := replay.Load(frame); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		objects := testing.AllocsPerRun(20, load)
		bytes, _ := allocated(load)
		budget := 4*float64(captured.NumTasks()+1+captured.NumEdges()) + 1024
		if objects > 4 || bytes > budget {
			t.Errorf("%s: Load allocates %.0f objects and %.0f B, budget 4 and %.0f B", name, objects, bytes, budget)
		}
	}
}

// TestCaptureIsSizedExactly: factor.Measure announces exactly the tasks,
// footprints and string bytes a capture's frame holds — beside the DAG
// label, which the pass adds itself — and the tile algorithms resolve no
// more edges than they declare operands, the room the pass gives the
// dependence columns. So CaptureArena's frame is allocated once, at its
// final size give or take the edges, and never regrows.
func TestCaptureIsSizedExactly(t *testing.T) {
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		for _, nt := range []int{1, 2, 6, 10, 16, 32} {
			name := fmt.Sprintf("%s nt=%d", alg, nt)
			size, err := factor.Measure(alg, nt)
			if err != nil {
				t.Fatal(err)
			}
			arena, err := CaptureArena(Spec{Algorithm: alg, Scheduler: "quark", NT: nt, NB: 8, Workers: 4, Seed: 1})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			const stringBytesCount = 32 + 4*8 // header, then the fifth count
			strBytes := binary.LittleEndian.Uint64(arena.Encode()[stringBytesCount:])
			if size.Tasks != arena.NumTasks() || size.Args != arena.NumFootprints() || uint64(size.StringBytes+len(arena.Label())) != strBytes {
				t.Errorf("%s: Measure announces %d tasks, %d operands and %d string bytes plus the label's %d; the frame holds %d, %d and %d",
					name, size.Tasks, size.Args, size.StringBytes, len(arena.Label()), arena.NumTasks(), arena.NumFootprints(), strBytes)
			}
			if arena.NumEdges() > size.Args {
				t.Errorf("%s: %d edges over %d operands: the dependence columns regrow", name, arena.NumEdges(), size.Args)
			}
		}
	}
}

// goldenModel draws from the stream on every call, so the constants below
// pin the sampling order and the seed derivation as well as the schedule.
type goldenModel struct{}

func (goldenModel) Duration(_ string, _ sched.WorkerKind, src *rng.Source) float64 {
	return 1e-3 * (0.5 + src.Float64())
}

// TestGoldenFingerprints pins absolute trace fingerprints. Every other
// identity test compares two paths of the same build with each other, so a
// change that moves capture, codec and replay together passes them all;
// these constants were generated at the commit before the capture cache
// held arenas and must not move without a stated reason.
func TestGoldenFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("constants are from amd64; targets that fuse multiply-add may round sampled durations differently")
	}
	golden := map[string]string{
		"cholesky/quark": "a6b2750196d099d7", "cholesky/starpu-prio": "a6b2750196d099d7", "cholesky/ompss": "98c0fdd468ff39ed",
		"qr/quark": "3da129689750b4e3", "qr/starpu-prio": "3da129689750b4e3", "qr/ompss": "7a99262ce4b206a1",
		"lu/quark": "48ee2c633bdd7a1e", "lu/starpu-prio": "48ee2c633bdd7a1e", "lu/ompss": "9505d16b6ab6df29",
	}
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		for _, sp := range []struct{ scheduler, policy string }{{"quark", ""}, {"starpu", "prio"}, {"ompss", ""}} {
			spec := Spec{Algorithm: alg, Scheduler: sp.scheduler, Policy: sp.policy, NT: 6, NB: 8, Workers: 4, Seed: 1}
			name := alg + "/" + sp.scheduler
			if sp.policy != "" {
				name += "-" + sp.policy
			}
			dag, err := CaptureSpec(spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			built, err := dag.Arena()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			arena, err := replay.Load(built.Encode())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			opt := replay.Options{
				Workers: 4, Model: goldenModel{}, Seed: 42,
				IgnorePriorities: ReplayIgnoresPriorities(spec),
			}
			tr, err := replay.RunArena(arena, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := fmt.Sprintf("%016x", tr.Fingerprint())
			if got != golden[name] {
				t.Errorf("%s: fingerprint %s, golden %s", name, got, golden[name])
			}
			// The same constant from the run that builds no trace: what a
			// cached simd job records as its identity.
			ms, fp, err := replay.Digest(arena, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := fmt.Sprintf("%016x", fp); got != golden[name] || ms != tr.Makespan() {
				t.Errorf("%s: Digest = (%v, %s), golden %s with makespan %v", name, ms, got, golden[name], tr.Makespan())
			}
		}
	}
}
