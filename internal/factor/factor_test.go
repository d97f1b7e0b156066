package factor

import (
	"fmt"
	"strings"
	"testing"

	"supersim/internal/hazard"
	"supersim/internal/kernels"
	"supersim/internal/lapackref"
	"supersim/internal/sched/ompss"
	"supersim/internal/sched/quark"
	"supersim/internal/sched/starpu"
	"supersim/internal/tile"
	"supersim/internal/workload"
)

const residualTol = 1e-10

// mustQuark and mustOmpSs wrap the scheduler constructors for tests whose
// worker counts are always valid.
func mustQuark(workers int, opts ...quark.Option) *quark.Scheduler {
	q, err := quark.New(workers, opts...)
	if err != nil {
		panic(err)
	}
	return q
}

func mustOmpSs(workers int, opts ...ompss.Option) *ompss.Scheduler {
	o, err := ompss.New(workers, opts...)
	if err != nil {
		panic(err)
	}
	return o
}

func TestCholeskySequentialCorrect(t *testing.T) {
	for _, shape := range []struct{ nt, nb int }{{1, 8}, {2, 5}, {3, 8}, {5, 12}} {
		a := workload.RandomSPD(shape.nt, shape.nb, 42)
		orig := a.Clone()
		if err := RunSequential(Cholesky(a)); err != nil {
			t.Fatalf("nt=%d nb=%d: %v", shape.nt, shape.nb, err)
		}
		if r := CholeskyResidual(orig, a); r > residualTol {
			t.Errorf("nt=%d nb=%d: residual %g", shape.nt, shape.nb, r)
		}
	}
}

func TestCholeskyMatchesLAPACKReference(t *testing.T) {
	nt, nb := 3, 7
	a := workload.RandomSPD(nt, nb, 7)
	ref := lapackref.FromSlice(a.ToDense(), a.N())
	if err := lapackref.Cholesky(ref); err != nil {
		t.Fatalf("reference Cholesky: %v", err)
	}
	if err := RunSequential(Cholesky(a)); err != nil {
		t.Fatalf("tile Cholesky: %v", err)
	}
	n := a.N()
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d := a.At(i, j) - ref.At(i, j)
			if d < 0 {
				d = -d
			}
			if d > 1e-9 {
				t.Fatalf("L mismatch at (%d,%d): tile %g vs ref %g", i, j, a.At(i, j), ref.At(i, j))
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	nt, nb := 2, 4
	a := tile.NewMatrix(nt, nb)
	n := a.N()
	for i := 0; i < n; i++ {
		a.Set(i, i, -1) // negative definite
	}
	err := RunSequential(Cholesky(a))
	if err == nil {
		t.Fatal("tile Cholesky accepted a negative definite matrix")
	}
}

func TestQRSequentialCorrect(t *testing.T) {
	for _, shape := range []struct{ nt, nb int }{{1, 8}, {2, 5}, {3, 8}, {4, 10}} {
		a := workload.RandomGeneral(shape.nt, shape.nb, 13)
		tm := tile.NewMatrix(shape.nt, shape.nb)
		orig := a.Clone()
		if err := RunSequential(QR(a, tm)); err != nil {
			t.Fatalf("nt=%d nb=%d: %v", shape.nt, shape.nb, err)
		}
		if r := QRResidual(orig, a, tm); r > residualTol {
			t.Errorf("nt=%d nb=%d: residual %g", shape.nt, shape.nb, r)
		}
		if o := QROrthogonality(a, tm); o > residualTol {
			t.Errorf("nt=%d nb=%d: orthogonality error %g", shape.nt, shape.nb, o)
		}
	}
}

func TestQRMatchesReferenceRUpToSigns(t *testing.T) {
	// The tile QR produces a different reflector sequence than plain
	// Householder QR, but |R| must agree.
	nt, nb := 2, 6
	a := workload.RandomGeneral(nt, nb, 99)
	tm := tile.NewMatrix(nt, nb)
	ref := lapackref.FromSlice(a.ToDense(), a.N())
	_, rRef := lapackref.QR(ref)
	if err := RunSequential(QR(a, tm)); err != nil {
		t.Fatal(err)
	}
	n := a.N()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			got, want := a.At(i, j), rRef.At(i, j)
			if got < 0 {
				got = -got
			}
			if want < 0 {
				want = -want
			}
			d := got - want
			if d < 0 {
				d = -d
			}
			if d > 1e-9 {
				t.Fatalf("|R| mismatch at (%d,%d): %g vs %g", i, j, a.At(i, j), rRef.At(i, j))
			}
		}
	}
}

func TestScheduledFactorizationsCorrectOnAllRuntimes(t *testing.T) {
	// The heart of superscalar correctness: out-of-order scheduled
	// execution must compute the same factorization as sequential order,
	// on every runtime reproduction.
	nt, nb := 4, 8
	for _, alg := range []string{"cholesky", "qr"} {
		for _, rtName := range []string{"quark", "starpu", "ompss"} {
			a, tm := workload.ForAlgorithm(alg, nt, nb, 31)
			orig := a.Clone()
			var err error
			switch rtName {
			case "quark":
				q := mustQuark(3)
				sink := InsertReal(q, alg, a, tm)
				q.Shutdown()
				err = sink.Err()
			case "starpu":
				s, serr := starpu.New(starpu.Conf{NCPUs: 3, Policy: starpu.PolicyWS})
				if serr != nil {
					t.Fatal(serr)
				}
				sink := InsertReal(s, alg, a, tm)
				s.Shutdown()
				err = sink.Err()
			case "ompss":
				o := mustOmpSs(3)
				sink := InsertReal(o, alg, a, tm)
				o.Shutdown()
				err = sink.Err()
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, rtName, err)
			}
			var resid float64
			if alg == "cholesky" {
				resid = CholeskyResidual(orig, a)
			} else {
				resid = QRResidual(orig, a, tm)
			}
			if resid > residualTol {
				t.Errorf("%s on %s: residual %g", alg, rtName, resid)
			}
		}
	}
}

func TestTaskStreamMatchesPaperFig2(t *testing.T) {
	// The paper's Fig. 2 lists the serial task stream of a 3x3 tile QR:
	// F0..F13 = geqrt, unmqr x2, tsqrt, tsmqr x2, tsqrt, tsmqr x2,
	// geqrt, unmqr, tsqrt, tsmqr, geqrt.
	a := workload.RandomGeneral(3, 4, 1)
	tm := tile.NewMatrix(3, 4)
	ops := QR(a, tm)
	want := []kernels.Class{
		kernels.ClassGEQRT,
		kernels.ClassORMQR, kernels.ClassORMQR,
		kernels.ClassTSQRT, kernels.ClassTSMQR, kernels.ClassTSMQR,
		kernels.ClassTSQRT, kernels.ClassTSMQR, kernels.ClassTSMQR,
		kernels.ClassGEQRT, kernels.ClassORMQR,
		kernels.ClassTSQRT, kernels.ClassTSMQR,
		kernels.ClassGEQRT,
	}
	if len(ops) != len(want) {
		t.Fatalf("3x3 QR stream has %d tasks, want %d", len(ops), len(want))
	}
	for i, op := range ops {
		if op.Class != want[i] {
			t.Errorf("F%d = %s, want %s", i, op.Class, want[i])
		}
	}
	// Check a specific decoration against the paper: F4 reads A10, T10
	// and read-writes A01, A11.
	f4 := ops[4]
	s := f4.String()
	for _, frag := range []string{"A10^r", "T10^r", "A01^rw", "A11^rw"} {
		if !strings.Contains(s, frag) {
			t.Errorf("F4 rendering %q missing %q", s, frag)
		}
	}
}

func TestCholeskyTaskCounts(t *testing.T) {
	// Algorithm 1 counts: NT potrf, NT(NT-1)/2 trsm, NT(NT-1)/2 syrk,
	// NT(NT-1)(NT-2)/6 gemm.
	for _, nt := range []int{1, 2, 3, 5, 8} {
		a := workload.RandomSPD(nt, 2, 3)
		ops := Cholesky(a)
		counts := map[kernels.Class]int{}
		for _, op := range ops {
			counts[op.Class]++
		}
		if got, want := counts[kernels.ClassPOTRF], nt; got != want {
			t.Errorf("nt=%d: %d POTRF, want %d", nt, got, want)
		}
		if got, want := counts[kernels.ClassTRSM], nt*(nt-1)/2; got != want {
			t.Errorf("nt=%d: %d TRSM, want %d", nt, got, want)
		}
		if got, want := counts[kernels.ClassSYRK], nt*(nt-1)/2; got != want {
			t.Errorf("nt=%d: %d SYRK, want %d", nt, got, want)
		}
		if got, want := counts[kernels.ClassGEMM], nt*(nt-1)*(nt-2)/6; got != want {
			t.Errorf("nt=%d: %d GEMM, want %d", nt, got, want)
		}
	}
}

func TestQRTaskCounts(t *testing.T) {
	// Algorithm 2 counts: NT geqrt, NT(NT-1)/2 each of ormqr and tsqrt,
	// and sum_k (NT-k-1)^2 tsmqr.
	for _, nt := range []int{1, 2, 3, 4, 6} {
		a := workload.RandomGeneral(nt, 2, 3)
		tm := tile.NewMatrix(nt, 2)
		ops := QR(a, tm)
		counts := map[kernels.Class]int{}
		for _, op := range ops {
			counts[op.Class]++
		}
		tsmqr := 0
		for k := 0; k < nt; k++ {
			tsmqr += (nt - k - 1) * (nt - k - 1)
		}
		if got, want := counts[kernels.ClassGEQRT], nt; got != want {
			t.Errorf("nt=%d: %d GEQRT, want %d", nt, got, want)
		}
		if got, want := counts[kernels.ClassORMQR], nt*(nt-1)/2; got != want {
			t.Errorf("nt=%d: %d ORMQR, want %d", nt, got, want)
		}
		if got, want := counts[kernels.ClassTSQRT], nt*(nt-1)/2; got != want {
			t.Errorf("nt=%d: %d TSQRT, want %d", nt, got, want)
		}
		if got, want := counts[kernels.ClassTSMQR], tsmqr; got != want {
			t.Errorf("nt=%d: %d TSMQR, want %d", nt, got, want)
		}
	}
}

func TestDAGSequentialOrderIsTopological(t *testing.T) {
	a := workload.RandomSPD(5, 2, 3)
	tracker := hazard.NewTracker()
	edges := 0
	// Serial insertion order must respect all edges (pred id < succ id).
	for _, op := range Cholesky(a) {
		args := make([]hazard.Arg, len(op.Args))
		for i, arg := range op.SchedArgs() {
			args[i] = hazard.Arg{Handle: arg.Handle, Mode: arg.Mode}
		}
		id, _, deps := tracker.Insert(args)
		for _, d := range deps {
			if d.Pred >= id {
				t.Fatalf("edge %d -> %d against insertion order", d.Pred, id)
			}
			edges++
		}
	}
	if edges == 0 {
		t.Fatal("Cholesky stream produced no dependences")
	}
}

// shapeStream builds alg's stream over storage-less tiles and returns the
// matrices with it, keyed by their argument-name prefix.
func shapeStream(t *testing.T, alg string, nt int) ([]Op, map[string]*tile.Matrix) {
	t.Helper()
	a, tm := workload.Shapes(alg, nt, 4)
	ops, err := Stream(alg, a, tm)
	if err != nil {
		t.Fatal(err)
	}
	ms := map[string]*tile.Matrix{"A": a}
	if tm != nil {
		ms["T"] = tm
	}
	return ops, ms
}

func TestArgumentNamesAndLabels(t *testing.T) {
	// An operand's name and an op's label are rendered from tile
	// coordinates; both must read exactly as the per-argument
	// fmt.Sprintf("%s%d%d") and the concatenation they replace did — frames
	// and fingerprints carry them — and the name must be that of the tile
	// the op hands the scheduler. nt=12 covers two-digit tile indices.
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		ops, ms := shapeStream(t, alg, 12)
		want := map[any]string{}
		for prefix, m := range ms {
			for i := 0; i < m.NT; i++ {
				for j := 0; j < m.NT; j++ {
					want[m.Tile(i, j)] = fmt.Sprintf("%s%d%d", prefix, i, j)
				}
			}
		}
		for _, op := range ops {
			names := make([]string, len(op.Args))
			for i, a := range op.SchedArgs() {
				if name := op.Args[i].String(); name != want[a.Handle] || a.Mode != op.Args[i].Mode() {
					t.Fatalf("%s: argument named %q in mode %s, want %q in mode %s", alg, name, op.Args[i].Mode(), want[a.Handle], a.Mode)
				}
				names[i] = want[a.Handle]
			}
			if label := string(op.Class) + "(" + strings.Join(names, ",") + ")"; op.Label() != label {
				t.Fatalf("%s: label %q, want %q", alg, op.Label(), label)
			}
		}
	}
}

func TestStreamsAreSizedExactly(t *testing.T) {
	// The op slice and the operand slab behind it are allocated once at
	// their final size, and an op names its tiles by coordinates: a stream
	// costs the same handful of objects at every nt, so an undersized slab
	// or a per-tile name shows as an extra.
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		var fixed float64
		for nt := 1; nt <= 7; nt++ {
			ops, ms := shapeStream(t, alg, nt)
			if len(ops) != cap(ops) {
				t.Errorf("%s nt=%d: %d ops in a slice of capacity %d", alg, nt, len(ops), cap(ops))
			}
			a, tm := ms["A"], ms["T"]
			allocs := testing.AllocsPerRun(10, func() { Stream(alg, a, tm) })
			if nt == 1 {
				fixed = allocs
			} else if allocs != fixed {
				t.Errorf("%s nt=%d: %.0f allocations, %.0f at nt=1", alg, nt, allocs, fixed)
			}
		}
	}
}
