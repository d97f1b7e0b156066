package replay

import (
	"testing"

	"supersim/internal/core"
	"supersim/internal/rng"
	"supersim/internal/sched"
)

// forceParallel lowers the crossover so the channel protocol runs even on
// tiny DAGs, restoring it when the test ends. Tests in this package run
// sequentially, so the package var is safe to swap.
func forceParallel(t *testing.T) {
	t.Helper()
	old := pdesCrossover
	pdesCrossover = 0
	t.Cleanup(func() { pdesCrossover = old })
}

// tickModel gives a task of class "K<d>", d a digit, the duration
// (d+1)·10⁻⁴ and draws nothing from the stream: durations that differ
// between tasks and tie often, the same under every seed.
type tickModel struct{}

func (tickModel) Duration(class string, _ sched.WorkerKind, _ *rng.Source) float64 {
	return float64(class[1]-'0'+1) * 1e-4
}

// syntheticDAG builds a random layered-ish DAG directly (no scheduler):
// task i depends on up to fan random earlier tasks, and its class K<i%7>
// gives it a tickModel duration that is a deterministic function of the
// id. Duplicate predecessors are deliberately possible — the per-edge
// notification accounting must tolerate them.
func syntheticDAG(n, fan, workers int, seed uint64) *DAG {
	src := rng.New(seed)
	d := &DAG{Label: "synthetic", Workers: workers, Handles: 1}
	d.Tasks = make([]Task, n)
	for i := range d.Tasks {
		t := &d.Tasks[i]
		t.ID = i
		t.Class = "K" + string(rune('0'+i%7))
		t.Label = "k"
		if i > 0 {
			for j := src.Intn(fan + 1); j > 0; j-- {
				t.Deps = append(t.Deps, sched.Dep{Pred: src.Intn(i)})
			}
		}
	}
	return d
}

func TestPartitionLanes(t *testing.T) {
	// Two chatty lane clusters {0,1} and {2,3} plus a light 0→2 link: the
	// grouper must put each cluster on one LP.
	const w = 4
	weight := make([]int32, w*w)
	weight[0*w+1] = 100
	weight[2*w+3] = 100
	weight[0*w+2] = 1
	part := make([]int32, w)
	partitionLanes(w, 2, weight, part)
	if part[0] != part[1] || part[2] != part[3] || part[0] == part[2] {
		t.Fatalf("partition split a heavy cluster: %v", part)
	}
	if part[0] != 0 || part[2] != 1 {
		t.Fatalf("group ids not renumbered by first lane: %v", part)
	}
	// Determinism: same weights, same partition.
	again := make([]int32, w)
	partitionLanes(w, 2, weight, again)
	for i := range part {
		if part[i] != again[i] {
			t.Fatalf("partition not deterministic: %v vs %v", part, again)
		}
	}
	// Group count is exact even when weights give no guidance, and sizes
	// respect the cap when p divides w.
	zero := make([]int32, 8*8)
	p8 := make([]int32, 8)
	partitionLanes(8, 4, zero, p8)
	counts := make(map[int32]int)
	for _, g := range p8 {
		if g < 0 || g >= 4 {
			t.Fatalf("group id %d out of range: %v", g, p8)
		}
		counts[g]++
	}
	if len(counts) != 4 {
		t.Fatalf("got %d groups, want 4: %v", len(counts), p8)
	}
	for g, c := range counts {
		if c > 2 {
			t.Fatalf("group %d has %d lanes, cap 2: %v", g, c, p8)
		}
	}
}

// TestPDESForcedParallelTinyDAG forces the channel protocol on the
// 7-task diamond — maximal blocking, every edge potentially a message —
// and requires bit-identity with the serial PDES execution at every
// partition count.
func TestPDESForcedParallelTinyDAG(t *testing.T) {
	forceParallel(t)
	model := jitterModel{base: 1e-3}
	dag, _ := captureRun(t, core.FixedModel(1e-3), 11)
	ref, err := Run(dag, Options{Workers: 4, Model: model, Seed: 7, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 4, 8} {
		tr, err := Run(dag, Options{Workers: 4, Model: model, Seed: 7, Parallelism: p})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if tr.Fingerprint() != ref.Fingerprint() {
			t.Errorf("p=%d: fingerprint %#x != p=1 %#x", p, tr.Fingerprint(), ref.Fingerprint())
		}
	}
}

// TestPDESRankFallback: a hand-built DAG replays on the id-ranked static
// schedule, physically valid and partition-invariant, duplicate edges and
// all.
func TestPDESRankFallback(t *testing.T) {
	forceParallel(t)
	dag := syntheticDAG(300, 3, 8, 5)
	ref, err := Run(dag, Options{Model: tickModel{}, Parallelism: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Events) != 300 {
		t.Fatalf("serial PDES ran %d events, want 300", len(ref.Events))
	}
	if v := ref.Validate(); len(v) != 0 {
		t.Fatalf("PDES trace has physical violations: %+v", v[0])
	}
	for _, p := range []int{2, 4, 8} {
		tr, err := Run(dag, Options{Model: tickModel{}, Parallelism: p, Seed: 1})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if tr.Fingerprint() != ref.Fingerprint() {
			t.Errorf("p=%d: fingerprint %#x != p=1 %#x", p, tr.Fingerprint(), ref.Fingerprint())
		}
	}
}

// TestPDESChannelStress exercises the LP channel protocol under load:
// random heavily cross-linked DAGs, every parallelism degree, repeated
// seeds. Run with -race (the CI race job and `make race-pdes` do) this is
// the memory-model check of the ownership-partitioned shared state; in
// any mode it is the deadlock/liveness check of the bounded-channel
// protocol.
func TestPDESChannelStress(t *testing.T) {
	forceParallel(t)
	model := jitterModel{base: 1e-4}
	for _, seed := range []uint64{1, 2, 3} {
		dag := syntheticDAG(2000, 4, 8, seed)
		ref, err := Run(dag, Options{Model: model, Seed: seed, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 3, 4, 8} {
			for rep := 0; rep < 2; rep++ {
				tr, err := Run(dag, Options{Model: model, Seed: seed, Parallelism: p})
				if err != nil {
					t.Fatalf("seed=%d p=%d: %v", seed, p, err)
				}
				if tr.Fingerprint() != ref.Fingerprint() {
					t.Fatalf("seed=%d p=%d rep=%d: fingerprint %#x != serial %#x",
						seed, p, rep, tr.Fingerprint(), ref.Fingerprint())
				}
			}
		}
	}
}

// TestPDESRejectsBadInput: the PDES path must enforce the same input
// contract as the serial executor: no model, no replay — on the calling
// goroutine and across logical processes.
func TestPDESRejectsBadInput(t *testing.T) {
	dag, _ := captureRun(t, core.FixedModel(1e-3), 5)
	arena, err := dag.Arena()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		if _, err := RunArena(arena, Options{Workers: 2, Parallelism: p}); err == nil {
			t.Errorf("p=%d: PDES accepted a replay with no model", p)
		}
	}
	forceParallel(t)
	if _, err := RunArena(arena, Options{Workers: 2, Parallelism: 2}); err == nil {
		t.Error("the LP protocol accepted a replay with no model")
	}
}
