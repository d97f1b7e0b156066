package bench

import (
	"reflect"
	"sort"
	"testing"
)

func TestCaptureSpecDAGValidates(t *testing.T) {
	spec := Spec{Algorithm: "qr", Scheduler: "quark", NT: 4, NB: 8, Workers: 3, Seed: 2}
	dag, err := CaptureSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := dag.Validate(); err != nil {
		t.Fatal(err)
	}
	if dag.Workers != 3 {
		t.Errorf("dag carries %d workers, want the spec's 3", dag.Workers)
	}
	if len(dag.Tasks) == 0 || dag.NumEdges() == 0 {
		t.Fatalf("capture produced %d tasks, %d edges", len(dag.Tasks), dag.NumEdges())
	}
	// Capture is deterministic: a second capture of the same spec records
	// the same graph.
	again, err := CaptureSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dag.Tasks, again.Tasks) || dag.Handles != again.Handles || dag.Label != again.Label {
		t.Error("two captures of the same spec differ")
	}
}

// TestSweepParallelShardInvariance is the sweep driver's core guarantee:
// the aggregate statistics are a pure function of (inputs, seed), never of
// how the replicas were distributed over goroutines.
func TestSweepParallelShardInvariance(t *testing.T) {
	run := func(shards int) []SweepPoint {
		t.Helper()
		points, _, err := SweepParallel("ompss", "cholesky", 8, 5, 4, SweepOptions{
			Reps: 4, Shards: shards, Model: replayJitter{}, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	base := run(1)
	if len(base) != 4 { // NT 2..5
		t.Fatalf("sweep produced %d points, want 4", len(base))
	}
	for _, p := range base {
		if p.MinMakespan <= 0 || p.GFlops <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
		if p.MinMakespan > p.MeanMakespan {
			t.Fatalf("min makespan %g exceeds mean %g", p.MinMakespan, p.MeanMakespan)
		}
	}
	for _, shards := range []int{4, 16} {
		if got := run(shards); !reflect.DeepEqual(base, got) {
			t.Errorf("shards=%d changed the sweep statistics:\n 1: %+v\n%2d: %+v", shards, base, shards, got)
		}
	}
}

func TestSweepParallelRequiresModel(t *testing.T) {
	if _, _, err := SweepParallel("ompss", "cholesky", 8, 4, 2, SweepOptions{}); err == nil {
		t.Error("SweepParallel accepted a nil duration model")
	}
}

func TestMaxErrPctEmptyCurve(t *testing.T) {
	var r PerfSweepResult
	if got := r.MaxErrPct(); got != 0 {
		t.Errorf("MaxErrPct of empty curve = %g, want 0", got)
	}
	r.Points = []PerfPoint{{ErrPct: 3}, {ErrPct: 7}, {ErrPct: 5}}
	if got := r.MaxErrPct(); got != 7 {
		t.Errorf("MaxErrPct = %g, want 7", got)
	}
}

func TestReplicaSeedIndependentOfOrder(t *testing.T) {
	seen := map[uint64]bool{}
	for nt := 2; nt <= 6; nt++ {
		for rep := 0; rep < 8; rep++ {
			s := ReplicaSeed(42, nt, rep)
			if seen[s] {
				t.Fatalf("replica seed collision at nt=%d rep=%d", nt, rep)
			}
			seen[s] = true
			if s != ReplicaSeed(42, nt, rep) {
				t.Fatal("ReplicaSeed is not a pure function")
			}
		}
	}
}

// TestSweepPointSliceMerge is the cluster fan-out guarantee: W sliced runs
// (point index % W == offset), concatenated and put in NT order, are the
// unsliced sweep — every field of every point — because a point's results
// are a function of its logical coordinates and never of which node (or
// slice) computes it. Stride 6 exceeds the point count, so its last slice
// owns nothing and is refused rather than returned empty.
func TestSweepPointSliceMerge(t *testing.T) {
	const maxNT = 6 // 5 points
	for _, algorithm := range []string{"cholesky", "qr"} {
		opt := SweepOptions{Reps: 3, Shards: 2, Model: replayJitter{}, Seed: 31}
		full, _, err := SweepParallel("quark", algorithm, 8, maxNT, 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		for stride := 1; stride <= 6; stride++ {
			var merged []SweepPoint
			for off := 0; off < stride; off++ {
				opt.PointOffset, opt.PointStride = off, stride
				part, _, err := SweepParallel("quark", algorithm, 8, maxNT, 4, opt)
				if off >= len(full) {
					if err == nil {
						t.Fatalf("%s slice %d/%d owns no point and was accepted", algorithm, off, stride)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s slice %d/%d: %v", algorithm, off, stride, err)
				}
				merged = append(merged, part...)
			}
			sort.Slice(merged, func(i, j int) bool { return merged[i].NT < merged[j].NT })
			if !reflect.DeepEqual(merged, full) {
				t.Fatalf("%s stride %d: merged slices differ from the unsliced sweep:\n%+v\n%+v", algorithm, stride, merged, full)
			}
		}
	}
	if _, _, err := SweepParallel("quark", "cholesky", 8, maxNT, 4, SweepOptions{
		Reps: 2, Model: replayJitter{}, PointOffset: 3, PointStride: 2,
	}); err == nil {
		t.Fatal("offset >= stride accepted")
	}
}
