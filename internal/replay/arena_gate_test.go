package replay_test

// The representation gate for the struct-of-arrays arena: on real kernel
// DAGs (cholesky/qr/lu) and every duration-model shape, the trace
// fingerprint must be bit-identical between
//
//  1. a pointer-walking reference executor — the greedy Run loop as it
//     shipped before the arena, kept here verbatim as an independent
//     implementation;
//  2. the arena executor behind replay.Run;
//  3. an encode→decode round trip of the arena (the .dag codec);
//
// and, separately, the PDES executor must produce one fingerprint across
// every partition count AND across the codec round trip. This is the same
// style of gate that pinned PR 4 (replay vs direct) and PR 7 (PDES
// partition invariance): representation changes are only allowed to move
// bytes, never bits of the result.

import (
	"testing"

	"supersim/internal/core"
	"supersim/internal/pq"
	"supersim/internal/replay"
	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/trace"
)

// refSeedMix mirrors replay's per-worker stream derivation.
const refSeedMix = 0x9e3779b97f4a7c15

type refReady struct{ id, prio, seq int32 }

type refEntry struct {
	end    float64
	seq    uint64
	start  float64
	id     int32
	worker int32
}

// refRun is the pre-arena greedy executor: CSR successor lists rebuilt
// per run from the Deps slices, every field read a Task pointer chase.
// It deliberately shares no code with the arena path — any divergence
// between the two is a representation bug, not a scheduling change.
func refRun(t *testing.T, d *replay.DAG, opt replay.Options) *trace.Trace {
	t.Helper()
	n := len(d.Tasks)
	workers := opt.Workers
	if workers <= 0 {
		workers = d.Workers
	}
	if workers < 1 {
		workers = 1
	}
	label := opt.Label
	if label == "" {
		label = d.Label + "-replay"
	}

	waits := make([]int32, n)
	succOff := make([]int32, n+1)
	cursor := make([]int32, n)
	edges := 0
	for i := range d.Tasks {
		waits[i] = int32(len(d.Tasks[i].Deps))
		edges += len(d.Tasks[i].Deps)
	}
	for i := range d.Tasks {
		for _, dep := range d.Tasks[i].Deps {
			cursor[dep.Pred]++
		}
	}
	off := int32(0)
	for i := 0; i < n; i++ {
		succOff[i] = off
		off += cursor[i]
		cursor[i] = 0
	}
	succOff[n] = off
	succList := make([]int32, edges)
	for i := range d.Tasks {
		for _, dep := range d.Tasks[i].Deps {
			p := dep.Pred
			succList[succOff[p]+cursor[p]] = int32(i)
			cursor[p]++
		}
	}

	sources := make([]*rng.Source, workers)
	src := func(w int) *rng.Source {
		if sources[w] == nil {
			sources[w] = rng.New(opt.Seed ^ (refSeedMix * (uint64(w) + 1)))
		}
		return sources[w]
	}

	ready := pq.New(func(a, b refReady) bool {
		if a.prio != b.prio {
			return a.prio > b.prio
		}
		return a.seq < b.seq
	})
	var pushSeq int32
	pushReady := func(id int32) {
		prio := int32(d.Tasks[id].Priority)
		if opt.IgnorePriorities {
			prio = 0
		}
		ready.Push(refReady{id: id, prio: prio, seq: pushSeq})
		pushSeq++
	}

	running := pq.New(func(a, b refEntry) bool {
		if a.end != b.end {
			return a.end < b.end
		}
		return a.seq < b.seq
	})
	free := pq.New(func(a, b int32) bool { return a < b })
	for w := 0; w < workers; w++ {
		free.Push(int32(w))
	}

	var clock float64
	var startSeq uint64
	mkEntry := func(it refReady, w int32) refEntry {
		tk := &d.Tasks[it.id]
		dur := opt.Model.Duration(tk.Class, sched.KindCPU, src(int(w)))
		if dur < 0 {
			dur = 0
		}
		e := refEntry{end: clock + dur, seq: startSeq, start: clock, id: it.id, worker: w}
		startSeq++
		return e
	}

	tr := trace.New(label, workers)
	tr.Reserve(n)
	for id := 0; id < n; id++ {
		if waits[id] == 0 {
			pushReady(int32(id))
		}
	}
	for !ready.Empty() && !free.Empty() {
		w, _ := free.Pop()
		it, _ := ready.Pop()
		running.Push(mkEntry(it, w))
	}
	for done := 0; done < n; done++ {
		e, ok := running.Peek()
		if !ok {
			t.Fatalf("reference executor: deadlock after %d of %d tasks", done, n)
		}
		if e.end > clock {
			clock = e.end
		}
		tk := &d.Tasks[e.id]
		tr.Append(trace.Event{
			Worker: int(e.worker),
			Class:  tk.Class,
			Label:  tk.Label,
			TaskID: tk.ID,
			Start:  e.start,
			End:    e.end,
		})
		for _, s := range succList[succOff[e.id]:succOff[e.id+1]] {
			waits[s]--
			if waits[s] == 0 {
				pushReady(s)
			}
		}
		if it, ok := ready.Pop(); ok {
			running.ReplaceTop(mkEntry(it, e.worker))
		} else {
			running.Pop()
			free.Push(e.worker)
		}
		for !ready.Empty() && !free.Empty() {
			w, _ := free.Pop()
			it, _ := ready.Pop()
			running.Push(mkEntry(it, w))
		}
	}
	return tr
}

func TestArenaRepresentationGate(t *testing.T) {
	kernels := []struct {
		algorithm string
		nt        int
	}{
		{"cholesky", 20},
		{"qr", 15},
		{"lu", 15},
	}
	models := []struct {
		name  string
		model core.DurationModel
	}{
		{"fixed", core.FixedModel(1e-3)},
		{"stochastic", jitter{base: 1e-3}},
		{"per-class", perClass{}},
	}
	for _, k := range kernels {
		arena := captureKernel(t, k.algorithm, k.nt)
		dag := arena.DAG() // the pointer reference walks the view's tasks
		decoded, err := replay.Decode(arena.Encode())
		if err != nil {
			t.Fatalf("%s: round trip: %v", k.algorithm, err)
		}
		for _, m := range models {
			opt := replay.Options{Workers: 8, Model: m.model, Seed: 11}

			// Greedy path: pointer reference vs arena vs codec round trip.
			want := refRun(t, dag, opt).Fingerprint()
			viaArena, err := replay.Run(dag, opt)
			if err != nil {
				t.Fatalf("%s/%s: arena run: %v", k.algorithm, m.name, err)
			}
			if got := viaArena.Fingerprint(); got != want {
				t.Errorf("%s/%s: arena fingerprint %#x != pointer reference %#x", k.algorithm, m.name, got, want)
			}
			viaCodec, err := replay.RunArena(decoded, opt)
			if err != nil {
				t.Fatalf("%s/%s: decoded run: %v", k.algorithm, m.name, err)
			}
			if got := viaCodec.Fingerprint(); got != want {
				t.Errorf("%s/%s: encode→decode fingerprint %#x != pointer reference %#x", k.algorithm, m.name, got, want)
			}

			// PDES path: one fingerprint across every partition count, on
			// both the built arena and the decoded one.
			var pdesRef uint64
			for i, p := range []int{1, 2, 4} {
				popt := opt
				popt.Parallelism = p
				tr, err := replay.Run(dag, popt)
				if err != nil {
					t.Fatalf("%s/%s p=%d: %v", k.algorithm, m.name, p, err)
				}
				if i == 0 {
					pdesRef = tr.Fingerprint()
				} else if got := tr.Fingerprint(); got != pdesRef {
					t.Errorf("%s/%s: PDES fingerprint at p=%d is %#x, at p=1 %#x", k.algorithm, m.name, p, got, pdesRef)
				}
				trDec, err := replay.RunArena(decoded, popt)
				if err != nil {
					t.Fatalf("%s/%s p=%d decoded: %v", k.algorithm, m.name, p, err)
				}
				if got := trDec.Fingerprint(); got != pdesRef {
					t.Errorf("%s/%s: decoded PDES fingerprint at p=%d is %#x, want %#x", k.algorithm, m.name, p, got, pdesRef)
				}
			}
		}
	}
}
