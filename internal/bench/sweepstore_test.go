package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"supersim/internal/core"
	"supersim/internal/replay"
	"supersim/internal/rng"
	"supersim/internal/trace"
	"supersim/internal/workload"
)

// referenceSweep is SweepParallel computed the plain way: every point
// captured fresh (CaptureArena, an arena of its own), every replica
// replayed with replay.Makespan on the calling goroutine, a seed-free
// model's replicas included.
func referenceSweep(t *testing.T, scheduler, algorithm string, nb, maxNT, workers int, opt SweepOptions) []SweepPoint {
	t.Helper()
	fifo := ReplayIgnoresPriorities(Spec{Scheduler: scheduler, Policy: opt.Policy})
	var points []SweepPoint
	for i, sw := range workload.PerfSweep(nb, maxNT) {
		if opt.PointStride > 1 && i%opt.PointStride != opt.PointOffset {
			continue
		}
		arena, err := CaptureArena(Spec{Algorithm: algorithm, Scheduler: scheduler, Policy: opt.Policy, NT: sw.NT, NB: nb, Workers: workers, Seed: opt.Seed})
		if err != nil {
			t.Fatal(err)
		}
		p := SweepPoint{NT: sw.NT, N: sw.N(), NumTasks: arena.NumTasks(), Edges: arena.NumEdges(), Makespans: make([]float64, opt.Reps)}
		for rep := range p.Makespans {
			if p.Makespans[rep], err = replay.Makespan(arena, replay.Options{
				Workers: workers, Model: opt.Model, Seed: ReplicaSeed(opt.Seed, sw.NT, rep), IgnorePriorities: fifo,
			}); err != nil {
				t.Fatal(err)
			}
		}
		p.Summarize(algorithm)
		points = append(points, p)
	}
	return points
}

// sweepFingerprint is server.SweepFingerprint's fold (NT, then the
// makespans, per point), which a test of this package cannot import.
func sweepFingerprint(points []SweepPoint) string {
	d := trace.NewDigest()
	for _, p := range points {
		d = d.Word(uint64(p.NT))
		for _, m := range p.Makespans {
			d = d.Word(math.Float64bits(m))
		}
	}
	return d.Hex()
}

// TestSweepStoreRecyclingIsInvisible: SweepParallel captures each point in
// a pooled replay.Store that the previous sweep's point left behind, so a
// store that went back while a replay still read it, or a frame written
// over a longer one without clearing, would change a curve. Four
// goroutines share the pool and run 120 sweeps between them, alternating
// algorithm and maxNT (so a store serves a small point after a large one
// and the reverse), nb, point slices at stride 2 and 3, and a seed-free
// and a seeded model. Every curve must equal the reference built from
// fresh captures, and the service's default sweep shape keeps its golden
// fingerprint (internal/server's TestGoldenResultFingerprints).
func TestSweepStoreRecyclingIsInvisible(t *testing.T) {
	const goroutines, sweeps, reps, workers = 4, 30, 3, 4
	type config struct {
		algorithm     string
		maxNT, nb     int
		model         int // index into sweepModels
		offset, slice int
	}
	algorithms, maxNTs, nbs := []string{"cholesky", "qr", "lu"}, []int{4, 9, 16}, []int{8, 32}
	full := make(map[config][]SweepPoint) // keyed with offset and slice zero
	for _, alg := range algorithms {
		for _, maxNT := range maxNTs {
			for _, nb := range nbs {
				for m := range sweepModels {
					full[config{alg, maxNT, nb, m, 0, 0}] = referenceSweep(t, "quark", alg, nb, maxNT, workers, SweepOptions{Reps: reps, Model: sweepModels[m].model, Seed: 17})
				}
			}
		}
	}
	options := func(c config) SweepOptions {
		return SweepOptions{Reps: reps, Shards: 2, Model: sweepModels[c.model].model, Seed: 17, PointOffset: c.offset, PointStride: c.slice}
	}
	want := func(c config) []SweepPoint {
		all := full[config{c.algorithm, c.maxNT, c.nb, c.model, 0, 0}]
		if c.slice <= 1 {
			return all
		}
		var part []SweepPoint
		for i := c.offset; i < len(all); i += c.slice {
			part = append(part, all[i])
		}
		return part
	}
	// The golden job: quark, cholesky, max_nt 4, nb 8, 2 workers, checked
	// on amd64 alone, as TestGoldenResultFingerprints is.
	defaultShape := SweepOptions{Reps: 2, Model: core.FixedModel(1e-3), Seed: 5}
	checkGolden := runtime.GOARCH == "amd64"

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(uint64(101 + g))
			for s := 0; s < sweeps; s++ {
				if s%10 == 9 {
					got, _, err := SweepParallel("quark", "cholesky", 8, 4, 2, defaultShape)
					if err != nil {
						t.Error(err)
						return
					}
					if fp := sweepFingerprint(got); checkGolden && fp != "8a07d828c4047c4c" {
						t.Errorf("goroutine %d sweep %d: the default sweep shape fingerprints to %s, golden 8a07d828c4047c4c", g, s, fp)
					}
					continue
				}
				c := config{
					algorithm: algorithms[(g+s)%len(algorithms)],
					maxNT:     maxNTs[(g+2*s)%len(maxNTs)],
					nb:        nbs[src.Intn(len(nbs))],
					model:     s % len(sweepModels),
				}
				if c.slice = 1 + src.Intn(3); c.slice > 1 {
					c.offset = src.Intn(c.slice)
				}
				got, _, err := SweepParallel("quark", c.algorithm, c.nb, c.maxNT, workers, options(c))
				if err != nil {
					t.Error(err)
					return
				}
				if w := want(c); !reflect.DeepEqual(got, w) {
					t.Errorf("goroutine %d sweep %d %+v: the curve differs from fresh captures:\n got %+v\nwant %+v", g, s, c, got, w)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStoreFramesMatchCaptureArena: an arena built in a store has the
// frame CaptureArena writes, byte for byte, whatever the store held
// before. One store captures the golden specs in turn, each after a
// larger capture (the store's buffers longer than the frame, their
// leftover bytes not to show) and a second time on its own (buffers of
// the same length).
func TestStoreFramesMatchCaptureArena(t *testing.T) {
	specs := goldenSpecs()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	slices.Sort(names)
	large := Spec{Algorithm: "qr", Scheduler: "quark", NT: 14, NB: 8, Workers: 4, Seed: 1}
	var store replay.Store
	for _, name := range names {
		spec := specs[name]
		want, err := CaptureArena(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, after := range []string{"a larger capture", "itself"} {
			if after == "a larger capture" {
				if _, err := captureArena(large, &store); err != nil {
					t.Fatal(err)
				}
			}
			got, err := captureArena(spec, &store)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Frame(), want.Frame()) {
				t.Errorf("%s after %s: the frame built in the store differs from CaptureArena's", name, after)
			}
			if d := fmt.Sprintf("%x", sha256.Sum256(got.Frame()))[:16]; d != goldenFrameDigests[spec.Algorithm] {
				t.Errorf("%s after %s: frame digest %s, golden %s", name, after, d, goldenFrameDigests[spec.Algorithm])
			}
		}
	}
}

// sweepAllocCeiling bounds what one warmed-up SweepParallel call
// allocates on the serve-sweep request shape (BENCHMARK.json: quark,
// cholesky nt 2..16, nb 32, 8 workers, 8 reps, the service's constant
// model): the sweep's own bookkeeping and per point its label, sink and
// level tables, but no frame and no successor slab — each point's are the
// pooled store's. Measured at 13.5 KB in 184 objects; a frame or
// successor slab allocated per point adds 15 objects and tens of KB.
// History: 357 KB in 261 objects while every point's capture allocated
// its frame and successor slab (80 % and 17 % of the bytes), dropped with
// the sweep.
const (
	sweepBytesCeiling   = 16 << 10
	sweepObjectsCeiling = 195
)

func TestSweepAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// One P: the sweep replays on one shard, and each sweep finds the
	// store set the previous one put back in the pool's per-P slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bytes, objects := allocated(func() {
		if _, _, err := SweepParallel("quark", "cholesky", 32, 16, 8, SweepOptions{
			Reps: 8, Model: core.FixedModel(1e-3), Seed: 1,
		}); err != nil {
			t.Fatal(err)
		}
	})
	got := fmt.Sprintf("%.0f B in %.0f objects per sweep", bytes, objects)
	if bytes > sweepBytesCeiling || objects > sweepObjectsCeiling {
		t.Errorf("SweepParallel on the serve-sweep shape allocates %s, ceilings %d B and %d objects", got, sweepBytesCeiling, sweepObjectsCeiling)
	}
	t.Log(got)
}

// TestSweepReplaysWithinGrahamBounds is an oracle for every replica a
// sweep replays: a greedy list schedule on P workers has makespan M with
// max(C, W/P) ≤ M ≤ W/P + (1 − 1/P)·C, W the work and C the critical
// path under the durations the schedule drew. Each point is replayed
// again with RunArena under the replica's options; W sums the trace's
// event durations and C is the longest path through the arena's view's
// dependences under them. The trace's makespan must be the sweep's for
// that replica, bit for bit.
func TestSweepReplaysWithinGrahamBounds(t *testing.T) {
	const maxNT, reps, eps = 12, 2, 1e-9
	for _, scheduler := range []string{"quark", "ompss"} {
		fifo := ReplayIgnoresPriorities(Spec{Scheduler: scheduler})
		for _, algorithm := range []string{"cholesky", "qr", "lu"} {
			for _, workers := range []int{3, 8} {
				for _, m := range sweepModels {
					name := fmt.Sprintf("%s/%s P=%d %s", scheduler, algorithm, workers, m.name)
					points, _, err := SweepParallel(scheduler, algorithm, 8, maxNT, workers, SweepOptions{Reps: reps, Model: m.model, Seed: 23})
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range points {
						arena, err := CaptureArena(Spec{Algorithm: algorithm, Scheduler: scheduler, NT: p.NT, NB: 8, Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						dag := arena.DAG()
						for rep, want := range p.Makespans {
							tr, err := replay.RunArena(arena, replay.Options{
								Workers: workers, Model: m.model, Seed: ReplicaSeed(23, p.NT, rep), IgnorePriorities: fifo,
							})
							if err != nil {
								t.Fatal(err)
							}
							if len(tr.Events) != arena.NumTasks() {
								t.Fatalf("%s nt=%d rep %d: %d events for %d tasks", name, p.NT, rep, len(tr.Events), arena.NumTasks())
							}
							dur := make([]float64, arena.NumTasks())
							work := 0.0
							for _, e := range tr.Events {
								dur[e.TaskID] = e.Duration()
								work += e.Duration()
							}
							finish := make([]float64, len(dur)) // longest path ending at each task; preds come first
							critical := 0.0
							for i, task := range dag.Tasks {
								start := 0.0
								for _, d := range task.Deps {
									start = max(start, finish[d.Pred])
								}
								finish[i] = start + dur[i]
								critical = max(critical, finish[i])
							}
							ms, pw := tr.Makespan(), float64(workers)
							if math.Float64bits(ms) != math.Float64bits(want) {
								t.Errorf("%s nt=%d rep %d: the trace's makespan %v, the sweep's %v", name, p.NT, rep, ms, want)
							}
							lower, upper := max(critical, work/pw), work/pw+(1-1/pw)*critical
							if ms < lower*(1-eps) || ms > upper*(1+eps) {
								t.Errorf("%s nt=%d rep %d: makespan %v outside Graham's bounds [%v, %v] (W=%v, C=%v)", name, p.NT, rep, ms, lower, upper, work, critical)
							}
						}
					}
				}
			}
		}
	}
}
