package workload

import (
	"testing"

	"supersim/internal/lapackref"
	"supersim/internal/tile"
)

func TestRandomGeneralDeterministic(t *testing.T) {
	a := RandomGeneral(3, 4, 42)
	b := RandomGeneral(3, 4, 42)
	if a.MaxAbsDiff(b) != 0 {
		t.Error("same seed produced different matrices")
	}
	c := RandomGeneral(3, 4, 43)
	if a.MaxAbsDiff(c) == 0 {
		t.Error("different seeds produced identical matrices")
	}
}

func TestRandomGeneralRange(t *testing.T) {
	a := RandomGeneral(2, 5, 7)
	n := a.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := a.At(i, j)
			if v < -1 || v >= 1 {
				t.Fatalf("entry %g out of [-1,1)", v)
			}
		}
	}
}

func TestRandomSPDIsSymmetricAndFactorable(t *testing.T) {
	a := RandomSPD(3, 5, 11)
	n := a.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a.At(i, j) != a.At(j, i) {
				t.Fatalf("not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// Positive definiteness: the reference Cholesky must succeed.
	d := lapackref.FromSlice(a.ToDense(), n)
	if err := lapackref.Cholesky(d); err != nil {
		t.Fatalf("SPD matrix not factorable: %v", err)
	}
}

func TestForAlgorithm(t *testing.T) {
	a, tm := ForAlgorithm("cholesky", 2, 3, 1)
	if a == nil || tm != nil {
		t.Error("cholesky workload wrong")
	}
	a, tm = ForAlgorithm("qr", 2, 3, 1)
	if a == nil || tm == nil {
		t.Error("qr workload wrong")
	}
	if tm.NT != 2 || tm.NB != 3 {
		t.Error("T matrix shape wrong")
	}
	a, tm = ForAlgorithm("nope", 2, 3, 1)
	if a != nil || tm != nil {
		t.Error("unknown algorithm should return nils")
	}
}

func TestShapesMirrorForAlgorithm(t *testing.T) {
	for _, alg := range []string{"cholesky", "chol", "qr", "lu", "nope"} {
		a, tm := ForAlgorithm(alg, 2, 3, 1)
		sa, st := Shapes(alg, 2, 3)
		if (a == nil) != (sa == nil) || (tm == nil) != (st == nil) {
			t.Errorf("%s: Shapes returns (%v, %v) where ForAlgorithm returns (%v, %v)", alg, sa != nil, st != nil, a != nil, tm != nil)
			continue
		}
		for _, m := range []*tile.Matrix{sa, st} {
			if m != nil && (m.NT != 2 || m.NB != 3 || m.Tiles[0].Data != nil) {
				t.Errorf("%s: shape is %dx%d with %d elements per tile", alg, m.NT, m.NB, len(m.Tiles[0].Data))
			}
		}
	}
}

func TestPerfSweep(t *testing.T) {
	sweeps := PerfSweep(100, 5)
	if len(sweeps) != 4 {
		t.Fatalf("%d sweeps, want 4 (NT 2..5)", len(sweeps))
	}
	if sweeps[0].NT != 2 || sweeps[3].NT != 5 {
		t.Errorf("sweep range wrong: %v", sweeps)
	}
	if sweeps[1].N() != 300 {
		t.Errorf("N = %d, want 300", sweeps[1].N())
	}
}
