package bench

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// opsDigests pin the op streams Ops builds, the ones direct simulations,
// measured runs and the lib-direct benchmark workload put through the
// engine's hazard tracker: per op its class, Label(), priority and each
// argument's name, mode and handle, the handle by its first-seen index in
// the stream. Taken before capture stopped building op streams, so the
// engine path is pinned apart from the capture path.
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
		for _, a := range op.Args {
			h, ok := seen[a.Handle]
			if !ok {
				h = len(seen)
				seen[a.Handle] = h
			}
			fmt.Fprintf(sum, "|%s^%s@%d", a.Name, a.Mode, h)
		}
		sum.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", sum.Sum(nil))[:16]
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
