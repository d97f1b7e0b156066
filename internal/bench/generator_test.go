package bench

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"supersim/internal/factor"
	"supersim/internal/sched"
)

// opsDigests pin the op streams Ops builds, which the lib-direct benchmark
// workload counts its runs' tasks against: per op its class, Label(),
// priority and each argument's name, mode and handle, the handle by its
// first-seen index in the stream. Taken before capture stopped building
// op streams, so the streams are pinned apart from the capture path.
var opsDigests = map[string]string{
	"cholesky/6": "fa6cb96e8928dcec", "cholesky/16": "2a40e7e98934e8fe",
	"qr/6": "8e949816f8c10378", "qr/16": "ceef5dfbb3cfef51",
	"lu/6": "968894bbddbb29be", "lu/16": "752a2aea61f7e828",
}

// opsDigest is the digest opsDigests holds for the spec's stream.
func opsDigest(t *testing.T, spec Spec) string {
	t.Helper()
	ops, err := Ops(spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[any]int)
	sum := sha256.New()
	for _, op := range ops {
		fmt.Fprintf(sum, "%s|%s|%d", op.Class, op.Label(), op.Priority)
		for i, a := range op.SchedArgs() {
			h, ok := seen[a.Handle]
			if !ok {
				h = len(seen)
				seen[a.Handle] = h
			}
			fmt.Fprintf(sum, "|%s^%s@%d", op.Args[i], a.Mode, h)
		}
		sum.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", sum.Sum(nil))[:16]
}

// insertDigests pin the sched.Tasks a direct run hands its runtime: per
// task its class, label, priority and each argument's mode and handle, the
// handle by its first-seen index in the run. They were taken from the
// tasks built out of Ops' streams while runs still inserted op streams, so
// factor.Insert, which walks the generator instead, is pinned to the
// stream the benchmark harness checks lib-direct against.
var insertDigests = map[string]string{
	"cholesky/1": "e3092234ae6d880f", "cholesky/6": "c4128d004a3341a4", "cholesky/16": "f9a96f57b30f9ebc",
	"qr/1": "a67921f7880884d9", "qr/6": "debfbb036763e0b7", "qr/16": "210229083c80a931",
	"lu/1": "be7d5da5c813155e", "lu/6": "1d95b0de43069691", "lu/16": "55e30b6a4ad4fb12",
}

// digestRuntime is a runtime that only digests what it is handed, as
// insertDigests hold it, and runs nothing.
type digestRuntime struct {
	sched.Runtime
	sum   hash.Hash
	seen  map[any]int
	tasks int
}

func (r *digestRuntime) Insert(t *sched.Task) error {
	r.tasks++
	fmt.Fprintf(r.sum, "%s|%s|%d", t.Class, t.Label, t.Priority)
	for _, a := range t.Args {
		h, ok := r.seen[a.Handle]
		if !ok {
			h = len(r.seen)
			r.seen[a.Handle] = h
		}
		fmt.Fprintf(r.sum, "|%s@%d", a.Mode, h)
	}
	r.sum.Write([]byte{'\n'})
	return nil
}

// TestInsertDigests: factor.Insert, package-level (in blocks: qr and lu
// at nt 16 take two) and from a recycled factor.Buffers alike, hands the
// runtime the pinned tasks, as many as factor.Measure counts.
func TestInsertDigests(t *testing.T) {
	buf := new(factor.Buffers)
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		for _, nt := range []int{1, 6, 16} {
			name := fmt.Sprintf("%s/%d", alg, nt)
			size, err := factor.Measure(alg, nt)
			if err != nil {
				t.Fatal(err)
			}
			a, tm, err := shapes(Spec{Algorithm: alg, NT: nt, NB: 8})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []*factor.Buffers{nil, buf} {
				rec := &digestRuntime{sum: sha256.New(), seen: map[any]int{}}
				if err := b.Insert(rec, nil, alg, a, tm, func(_ *factor.Task, st *sched.Task) { st.Func = noopTask }); err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", rec.sum.Sum(nil))[:16]; got != insertDigests[name] || rec.tasks != size.Tasks {
					t.Errorf("%s (buffers %v): %d tasks digesting to %s, want %d pinned at %s",
						name, b != nil, rec.tasks, got, size.Tasks, insertDigests[name])
				}
				buf.Reset()
			}
		}
	}
}

func TestOpsDigests(t *testing.T) {
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		for _, nt := range []int{6, 16} {
			name := fmt.Sprintf("%s/%d", alg, nt)
			got := opsDigest(t, Spec{Algorithm: alg, Scheduler: "quark", NT: nt, NB: 8, Workers: 4, Seed: 1})
			if got != opsDigests[name] {
				t.Errorf("%s: op stream digest %s, pinned %s", name, got, opsDigests[name])
			}
		}
	}
}

// wideFrameDigests extend goldenFrameDigests to tile indices of two
// digits, where a label such as A1011 is the only thing telling tile
// (10, 11) from (101, 1): the frames of quark captures at nb 8, 4 workers
// and seed 1.
var wideFrameDigests = map[string]string{
	"cholesky/16": "38f6a08043216dd4", "cholesky/32": "1478d4787bacc138",
	"qr/16": "b41ec38798f856de", "qr/32": "6a9b59315647112f",
	"lu/16": "45ec293477bcf627", "lu/32": "69a6425a74ebb401",
}

func TestCaptureFramesGoldenAtTwoDigitTiles(t *testing.T) {
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		for _, nt := range []int{16, 32} {
			name := fmt.Sprintf("%s/%d", alg, nt)
			arena, err := CaptureArena(Spec{Algorithm: alg, Scheduler: "quark", NT: nt, NB: 8, Workers: 4, Seed: 1})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(arena.Encode()))[:16]; got != wideFrameDigests[name] {
				t.Errorf("%s: frame digest %s, golden %s", name, got, wideFrameDigests[name])
			}
		}
	}
}

// TestBadSizesAreErrors: a spec without tiles is refused with an error by
// every entry that builds or captures its stream, where NewShape used to
// panic; the "chol" alias still names cholesky.
func TestBadSizesAreErrors(t *testing.T) {
	for _, c := range []struct {
		alg    string
		nt, nb int
		ok     bool
	}{
		{"cholesky", 0, 8, false},
		{"qr", -1, 8, false},
		{"lu", 4, 0, false},
		{"cholesky", 4, -2, false},
		{"nope", 4, 8, false},
		{"chol", 4, 8, true},
		{"cholesky", 1, 1, true},
	} {
		spec := Spec{Algorithm: c.alg, Scheduler: "quark", NT: c.nt, NB: c.nb, Workers: 2, Seed: 1}
		name := fmt.Sprintf("%s nt=%d nb=%d", c.alg, c.nt, c.nb)
		_, opsErr := Ops(spec)
		arena, capErr := CaptureArena(spec)
		_, simErr := Simulated(spec, goldenModel{})
		for entry, err := range map[string]error{"Ops": opsErr, "CaptureArena": capErr, "Simulated": simErr} {
			if (err == nil) != c.ok {
				t.Errorf("%s: %s returned %v, want an error: %v", name, entry, err, !c.ok)
			}
		}
		if c.alg == "chol" && capErr == nil {
			spec.Algorithm = "cholesky"
			want, err := CaptureArena(spec)
			if err != nil {
				t.Fatal(err)
			}
			if arena.Label() != "chol-nt4" || arena.NumTasks() != want.NumTasks() || arena.NumEdges() != want.NumEdges() {
				t.Errorf("chol: %q with %d tasks and %d edges, want chol-nt4 with cholesky's %d and %d",
					arena.Label(), arena.NumTasks(), arena.NumEdges(), want.NumTasks(), want.NumEdges())
			}
		}
	}
}
