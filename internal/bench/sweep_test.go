package bench

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"supersim/internal/core"
	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/workload"
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

// sweepModels are the two kinds of model a sweep treats differently: one
// that samples every duration from its stream, and a constant one that
// draws nothing (replay.SeedFree), whose points replay once.
var sweepModels = []struct {
	name  string
	model core.DurationModel
}{
	{"stochastic", replayJitter{}},
	{"seed-free", core.FixedModel(1e-4)},
}

// TestSweepParallelShardInvariance is the sweep driver's core guarantee:
// the aggregate statistics are a pure function of (inputs, seed), never of
// how the replicas were distributed over goroutines.
func TestSweepParallelShardInvariance(t *testing.T) {
	for _, m := range sweepModels {
		run := func(shards int) []SweepPoint {
			t.Helper()
			points, _, err := SweepParallel("ompss", "cholesky", 8, 5, 4, SweepOptions{
				Reps: 4, Shards: shards, Model: m.model, Seed: 9,
			})
			if err != nil {
				t.Fatal(err)
			}
			return points
		}
		base := run(1)
		if len(base) != 4 { // NT 2..5
			t.Fatalf("%s: sweep produced %d points, want 4", m.name, len(base))
		}
		for _, p := range base {
			if p.MinMakespan <= 0 || p.GFlops <= 0 {
				t.Fatalf("%s: degenerate point %+v", m.name, p)
			}
			if p.MinMakespan > p.MeanMakespan {
				t.Fatalf("%s: min makespan %g exceeds mean %g", m.name, p.MinMakespan, p.MeanMakespan)
			}
		}
		for _, shards := range []int{4, 16} {
			if got := run(shards); !reflect.DeepEqual(base, got) {
				t.Errorf("%s: shards=%d changed the sweep statistics:\n 1: %+v\n%2d: %+v", m.name, shards, base, shards, got)
			}
		}
	}
}

// countingModel counts the Duration calls made on the model it wraps. It
// draws exactly what the wrapped model draws.
type countingModel struct {
	inner core.DurationModel
	calls *atomic.Int64
}

func (m countingModel) Duration(class string, kind sched.WorkerKind, src *rng.Source) float64 {
	m.calls.Add(1)
	return m.inner.Duration(class, kind, src)
}

// TestSweepReplaysSeedFreePointsOnce: a model that draws no randomness
// replays each point once — one Duration call per task, plus one probe
// call per distinct class — and every replica carries that replay's
// makespan; a drawing model replays every replica (one probe call per
// point, which stops at the first class that draws).
func TestSweepReplaysSeedFreePointsOnce(t *testing.T) {
	const reps, maxNT = 5, 6
	var tasks, classes int64
	for _, sw := range workload.PerfSweep(8, maxNT) {
		dag, err := CaptureSpec(Spec{Algorithm: "cholesky", Scheduler: "quark", NT: sw.NT, NB: 8, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, task := range dag.Tasks {
			seen[task.Class] = true
		}
		tasks += int64(len(dag.Tasks))
		classes += int64(len(seen))
	}
	points := int64(maxNT - 1)
	for _, tc := range []struct {
		name      string
		model     core.DurationModel
		wantCalls int64
	}{
		{"seed-free", core.FixedModel(1e-4), tasks + classes},
		{"stochastic", replayJitter{}, reps*tasks + points},
	} {
		var calls atomic.Int64
		got, _, err := SweepParallel("quark", "cholesky", 8, maxNT, 4, SweepOptions{
			Reps: reps, Shards: 2, Model: countingModel{tc.model, &calls}, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != tc.wantCalls {
			t.Errorf("%s: %d Duration calls, want %d", tc.name, n, tc.wantCalls)
		}
		for _, p := range got {
			distinct := map[float64]bool{}
			for _, ms := range p.Makespans {
				distinct[ms] = true
			}
			if seedFree := tc.name == "seed-free"; seedFree != (len(distinct) == 1) {
				t.Errorf("%s nt=%d: %d distinct makespans over %d replicas", tc.name, p.NT, len(distinct), reps)
			}
		}
	}
}

// TestSweepStopsOnItsContext: a cancelled context stops a sweep before its
// first capture, and one cancelled while replicas replay stops the rest.
func TestSweepStopsOnItsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := SweepParallel("quark", "cholesky", 8, 6, 4, SweepOptions{Reps: 2, Model: replayJitter{}, Ctx: ctx})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "before capturing nt=2") {
		t.Fatalf("sweep under a cancelled context: %v, want a cancellation before the first capture", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	_, _, err = SweepParallel("quark", "cholesky", 8, 6, 4, SweepOptions{
		Reps: 50, Shards: 1, Model: cancellingModel{cancel, &calls}, Ctx: ctx,
	})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "before replaying") {
		t.Fatalf("sweep cancelled mid-replay: %v, want a cancellation before a replay", err)
	}
	if n := calls.Load(); n > 100 {
		t.Errorf("%d Duration calls after the 10th cancelled the sweep: replays went on", n)
	}
}

// cancellingModel cancels its sweep's context on its 10th call: past the
// seed-free probe's one call per point, inside the first replays.
type cancellingModel struct {
	cancel context.CancelFunc
	calls  *atomic.Int64
}

func (m cancellingModel) Duration(_ string, _ sched.WorkerKind, src *rng.Source) float64 {
	if m.calls.Add(1) == 10 {
		m.cancel()
	}
	return src.Float64()
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
		for _, m := range sweepModels {
			sliceMerge(t, algorithm, SweepOptions{Reps: 3, Shards: 2, Model: m.model, Seed: 31}, maxNT)
		}
	}
	if _, _, err := SweepParallel("quark", "cholesky", 8, maxNT, 4, SweepOptions{
		Reps: 2, Model: replayJitter{}, PointOffset: 3, PointStride: 2,
	}); err == nil {
		t.Fatal("offset >= stride accepted")
	}
}

// sliceMerge checks that every point slicing of the sweep merges back into
// the unsliced sweep.
func sliceMerge(t *testing.T, algorithm string, opt SweepOptions, maxNT int) {
	t.Helper()
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
