package tile

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTileAtSetColumnMajor(t *testing.T) {
	tl := NewTile(3)
	tl.Set(1, 2, 5)
	if tl.Data[1+2*3] != 5 {
		t.Error("Set is not column-major")
	}
	if tl.At(1, 2) != 5 {
		t.Error("At/Set mismatch")
	}
}

func TestTileCloneIndependent(t *testing.T) {
	a := NewTile(2)
	a.Set(0, 0, 1)
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestTileCopyFromMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on size mismatch")
		}
	}()
	NewTile(2).CopyFrom(NewTile(3))
}

func TestMatrixIndexing(t *testing.T) {
	m := NewMatrix(3, 4) // 12x12
	m.Set(5, 10, 7)      // tile (1,2), local (1,2)
	if m.Tile(1, 2).At(1, 2) != 7 {
		t.Error("dense indexing does not hit the right tile element")
	}
	if m.At(5, 10) != 7 {
		t.Error("At/Set mismatch")
	}
	if m.N() != 12 {
		t.Errorf("N = %d", m.N())
	}
}

func TestFromDenseToDenseRoundTrip(t *testing.T) {
	err := quick.Check(func(seedVals []float64) bool {
		nt, nb := 2, 3
		n := nt * nb
		dense := make([]float64, n*n)
		for i := range dense {
			if len(seedVals) > 0 {
				v := seedVals[i%len(seedVals)]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 1
				}
				dense[i] = v
			} else {
				dense[i] = float64(i)
			}
		}
		m := FromDense(dense, nt, nb)
		back := m.ToDense()
		for i := range dense {
			if back[i] != dense[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestFromDenseWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FromDense(make([]float64, 10), 2, 3)
}

func TestIdentity(t *testing.T) {
	m := Identity(2, 3)
	n := m.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("identity wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Set(0, 0, 3)
	m.Set(1, 1, 4)
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("norm = %g, want 5", got)
	}
	if Identity(2, 2).FrobeniusNorm() != 2 {
		t.Error("norm of 4x4 identity should be 2")
	}
}

func TestFrobeniusNormOverflowResistant(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Set(0, 0, 1e200)
	m.Set(1, 1, 1e200)
	want := 1e200 * math.Sqrt2
	if got := m.FrobeniusNorm(); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("norm = %g, want %g (overflowed?)", got, want)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewMatrix(1, 2)
	b := NewMatrix(1, 2)
	b.Set(1, 0, -3)
	if got := a.MaxAbsDiff(b); got != 3 {
		t.Errorf("MaxAbsDiff = %g, want 3", got)
	}
}

func TestTriangularExtraction(t *testing.T) {
	m := NewMatrix(2, 2)
	n := m.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, 1)
		}
	}
	lo := m.LowerTriangular()
	up := m.UpperTriangular()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			wantLo, wantUp := 0.0, 0.0
			if j <= i {
				wantLo = 1
			}
			if j >= i {
				wantUp = 1
			}
			if lo.At(i, j) != wantLo {
				t.Fatalf("lower wrong at (%d,%d)", i, j)
			}
			if up.At(i, j) != wantUp {
				t.Fatalf("upper wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(3, 0, 7) // lower element
	m.Symmetrize()
	if m.At(0, 3) != 7 {
		t.Error("Symmetrize did not mirror lower to upper")
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMatrix(0, 4)
}

func TestNewShapeHasDistinctStoragelessTiles(t *testing.T) {
	m := NewShape(3, 64)
	if m.NT != 3 || m.NB != 64 || m.N() != 192 || len(m.Tiles) != 9 {
		t.Fatalf("shape %dx%d with %d tiles", m.NT, m.NB, len(m.Tiles))
	}
	seen := map[*Tile]bool{}
	for _, tl := range m.Tiles {
		if tl.NB != 64 || tl.Data != nil {
			t.Fatalf("shape tile has NB %d and %d elements, want 64 and none", tl.NB, len(tl.Data))
		}
		seen[tl] = true
	}
	if len(seen) != 9 {
		t.Errorf("%d distinct tile handles, want 9", len(seen))
	}
	if m.Tile(1, 2) != m.Tiles[1+2*3] {
		t.Error("Tile(i,j) does not index a shape like a matrix")
	}
}
