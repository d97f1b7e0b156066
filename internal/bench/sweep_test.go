package bench

import (
	"reflect"
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

// TestSweepReplicaSliceMerge is the cluster fan-out guarantee: W sliced
// runs (rep % W == offset) merged entry-wise reproduce the unsliced sweep
// bit for bit, because replica seeds are logical-coordinate functions and
// never depend on which node (or slice) runs them.
func TestSweepReplicaSliceMerge(t *testing.T) {
	const reps, maxNT = 5, 5
	full, _, err := SweepParallel("quark", "cholesky", 8, maxNT, 4, SweepOptions{
		Reps: reps, Shards: 2, Model: replayJitter{}, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, stride := range []int{2, 3} {
		merged := make([][]float64, len(full))
		for i, p := range full {
			merged[i] = make([]float64, len(p.Makespans))
		}
		for off := 0; off < stride; off++ {
			part, _, err := SweepParallel("quark", "cholesky", 8, maxNT, 4, SweepOptions{
				Reps: reps, Shards: 2, Model: replayJitter{}, Seed: 31,
				RepOffset: off, RepStride: stride,
			})
			if err != nil {
				t.Fatalf("slice %d/%d: %v", off, stride, err)
			}
			for i, p := range part {
				if p.NT != full[i].NT || p.NumTasks != full[i].NumTasks {
					t.Fatalf("slice %d/%d point %d: structure diverged", off, stride, i)
				}
				for rep := off; rep < reps; rep += stride {
					if p.Makespans[rep] == 0 {
						t.Fatalf("slice %d/%d point %d: owned replica %d not run", off, stride, i, rep)
					}
					merged[i][rep] = p.Makespans[rep]
				}
				// Unowned entries must stay untouched.
				for rep := 0; rep < reps; rep++ {
					if (rep-off)%stride != 0 && p.Makespans[rep] != 0 {
						t.Fatalf("slice %d/%d point %d: replica %d run outside the slice", off, stride, i, rep)
					}
				}
			}
		}
		for i := range full {
			for rep := 0; rep < reps; rep++ {
				if merged[i][rep] != full[i].Makespans[rep] {
					t.Fatalf("stride %d point %d replica %d: merged %g != full %g",
						stride, i, rep, merged[i][rep], full[i].Makespans[rep])
				}
			}
		}
	}

	// Degenerate slices are rejected, not silently empty.
	if _, _, err := SweepParallel("quark", "cholesky", 8, maxNT, 4, SweepOptions{
		Reps: 2, Model: replayJitter{}, RepOffset: 3, RepStride: 2,
	}); err == nil {
		t.Fatal("offset >= stride accepted")
	}
	if _, _, err := SweepParallel("quark", "cholesky", 8, maxNT, 4, SweepOptions{
		Reps: 2, Model: replayJitter{}, RepOffset: 2, RepStride: 8,
	}); err == nil {
		t.Fatal("empty slice (offset beyond reps) accepted")
	}
}
