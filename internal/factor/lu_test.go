package factor

import (
	"math"
	"testing"

	"supersim/internal/kernels"
	"supersim/internal/tile"
	"supersim/internal/workload"
)

func TestLUSequentialCorrect(t *testing.T) {
	for _, shape := range []struct{ nt, nb int }{{1, 8}, {2, 5}, {3, 8}, {5, 10}} {
		a := workload.RandomDiagonallyDominant(shape.nt, shape.nb, 21)
		orig := a.Clone()
		if err := RunSequential(LU(a)); err != nil {
			t.Fatalf("nt=%d nb=%d: %v", shape.nt, shape.nb, err)
		}
		if r := LUResidual(orig, a); r > residualTol {
			t.Errorf("nt=%d nb=%d: residual %g", shape.nt, shape.nb, r)
		}
	}
}

func TestLUScheduledCorrect(t *testing.T) {
	a := workload.RandomDiagonallyDominant(4, 8, 22)
	orig := a.Clone()
	q := mustQuark(3)
	sink := InsertReal(q, LU(a))
	q.Shutdown()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if r := LUResidual(orig, a); r > residualTol {
		t.Errorf("scheduled LU residual %g", r)
	}
}

func TestLUMatchesGaussianElimination(t *testing.T) {
	// Compare U's diagonal against dense Gaussian elimination without
	// pivoting on the same matrix.
	nt, nb := 2, 4
	a := workload.RandomDiagonallyDominant(nt, nb, 23)
	dense := a.ToDense()
	n := a.N()
	// Dense LU without pivoting.
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			dense[i*n+k] /= dense[k*n+k]
			for j := k + 1; j < n; j++ {
				dense[i*n+j] -= dense[i*n+k] * dense[k*n+j]
			}
		}
	}
	if err := RunSequential(LU(a)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d := math.Abs(a.At(i, j) - dense[i*n+j]); d > 1e-9 {
				t.Fatalf("LU mismatch at (%d,%d): %g vs %g", i, j, a.At(i, j), dense[i*n+j])
			}
		}
	}
}

func TestLUZeroPivotDetected(t *testing.T) {
	a := tile.NewMatrix(2, 3) // all zeros: first pivot vanishes
	err := RunSequential(LU(a))
	if err == nil {
		t.Fatal("LU accepted a singular matrix")
	}
	if _, ok := err.(*kernels.ErrZeroPivot); !ok {
		t.Errorf("error type %T, want *kernels.ErrZeroPivot", err)
	}
}

func TestLUTaskCounts(t *testing.T) {
	// NT getrf, NT(NT-1)/2 each of trsmu/trsml, sum k^2 = NT(NT-1)(2NT-1)/6 gemm.
	for _, nt := range []int{1, 2, 3, 5} {
		a := workload.RandomDiagonallyDominant(nt, 2, 5)
		counts := map[kernels.Class]int{}
		for _, op := range LU(a) {
			counts[op.Class]++
		}
		if counts[kernels.ClassGETRF] != nt {
			t.Errorf("nt=%d: %d GETRF", nt, counts[kernels.ClassGETRF])
		}
		if want := nt * (nt - 1) / 2; counts[kernels.ClassTRSMU] != want || counts[kernels.ClassTRSML] != want {
			t.Errorf("nt=%d: %d TRSMU / %d TRSML, want %d each",
				nt, counts[kernels.ClassTRSMU], counts[kernels.ClassTRSML], want)
		}
		if want := nt * (nt - 1) * (2*nt - 1) / 6; counts[kernels.ClassGEMM] != want {
			t.Errorf("nt=%d: %d GEMM, want %d", nt, counts[kernels.ClassGEMM], want)
		}
	}
}

func TestLUStreamDispatch(t *testing.T) {
	a := workload.RandomDiagonallyDominant(2, 3, 5)
	ops, err := Stream("lu", a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 || ops[0].Class != kernels.ClassGETRF {
		t.Error("Stream(lu) wrong")
	}
}
