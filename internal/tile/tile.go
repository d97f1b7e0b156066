// Package tile implements the tiled matrix layout used by tile linear
// algebra algorithms (Section IV-B of the paper): the matrix is stored as
// an NT x NT grid of contiguous NB x NB column-major tiles, so each task
// operates on one or a few cache-resident tiles.
package tile

import (
	"fmt"
	"math"
)

// Tile is a dense NB x NB block stored column-major: element (i, j) lives
// at Data[i + j*NB], matching LAPACK conventions. A shape-only tile (see
// NewShape) has NB set and Data nil.
type Tile struct {
	NB   int
	Data []float64
}

// NewTile returns a zeroed NB x NB tile.
func NewTile(nb int) *Tile {
	return &Tile{NB: nb, Data: make([]float64, nb*nb)}
}

// At returns element (i, j).
func (t *Tile) At(i, j int) float64 { return t.Data[i+j*t.NB] }

// Set stores v at element (i, j).
func (t *Tile) Set(i, j int, v float64) { t.Data[i+j*t.NB] = v }

// Clone returns a deep copy of the tile.
func (t *Tile) Clone() *Tile {
	c := NewTile(t.NB)
	copy(c.Data, t.Data)
	return c
}

// Zero clears the tile in place.
func (t *Tile) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// CopyFrom copies src into t. Both tiles must have the same NB.
func (t *Tile) CopyFrom(src *Tile) {
	if t.NB != src.NB {
		panic(fmt.Sprintf("tile: CopyFrom size mismatch %d != %d", t.NB, src.NB))
	}
	copy(t.Data, src.Data)
}

// Matrix is a square tiled matrix: NT x NT tiles of size NB x NB, i.e. an
// (NT*NB) x (NT*NB) dense matrix.
type Matrix struct {
	NT    int // number of tile rows/columns
	NB    int // tile size
	Tiles []*Tile
}

// NewMatrix returns a zeroed tiled matrix with nt x nt tiles of size nb.
func NewMatrix(nt, nb int) *Matrix {
	if nt < 1 || nb < 1 {
		panic(fmt.Sprintf("tile: NewMatrix(%d, %d) with non-positive dimensions", nt, nb))
	}
	m := &Matrix{NT: nt, NB: nb, Tiles: make([]*Tile, nt*nt)}
	for i := range m.Tiles {
		m.Tiles[i] = NewTile(nb)
	}
	return m
}

// NewShape returns an nt x nt tiled matrix of tile size nb whose tiles have
// no element storage: NB is set, Data is nil. Capturing or simulating a
// tile algorithm runs no kernel, so all it needs of a tile is a distinct
// handle to track dependences on; a shape costs nt² small structs whatever
// nb is, where NewMatrix allocates and the workload generators fill
// (nt·nb)² elements. Element access on a shape panics.
func NewShape(nt, nb int) *Matrix {
	if nt < 1 || nb < 1 {
		panic(fmt.Sprintf("tile: NewShape(%d, %d) with non-positive dimensions", nt, nb))
	}
	m := &Matrix{NT: nt, NB: nb, Tiles: make([]*Tile, nt*nt)}
	tiles := make([]Tile, nt*nt)
	for i := range tiles {
		tiles[i].NB = nb
		m.Tiles[i] = &tiles[i]
	}
	return m
}

// N returns the dense dimension NT*NB.
func (m *Matrix) N() int { return m.NT * m.NB }

// Tile returns the tile at tile-coordinates (ti, tj).
func (m *Matrix) Tile(ti, tj int) *Tile { return m.Tiles[ti+tj*m.NT] }

// At returns dense element (i, j).
func (m *Matrix) At(i, j int) float64 {
	return m.Tile(i/m.NB, j/m.NB).At(i%m.NB, j%m.NB)
}

// Set stores dense element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.Tile(i/m.NB, j/m.NB).Set(i%m.NB, j%m.NB, v)
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{NT: m.NT, NB: m.NB, Tiles: make([]*Tile, len(m.Tiles))}
	for i, t := range m.Tiles {
		c.Tiles[i] = t.Clone()
	}
	return c
}

// FromDense packs a dense row-major n x n matrix (n = nt*nb) into tiles.
func FromDense(dense []float64, nt, nb int) *Matrix {
	n := nt * nb
	if len(dense) != n*n {
		panic(fmt.Sprintf("tile: FromDense expects %d elements, got %d", n*n, len(dense)))
	}
	m := NewMatrix(nt, nb)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, dense[i*n+j])
		}
	}
	return m
}

// ToDense unpacks into a dense row-major n x n slice.
func (m *Matrix) ToDense() []float64 {
	n := m.N()
	dense := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dense[i*n+j] = m.At(i, j)
		}
	}
	return dense
}

// Identity returns the tiled identity matrix.
func Identity(nt, nb int) *Matrix {
	m := NewMatrix(nt, nb)
	for k := 0; k < nt; k++ {
		t := m.Tile(k, k)
		for i := 0; i < nb; i++ {
			t.Set(i, i, 1)
		}
	}
	return m
}

// FrobeniusNorm returns the Frobenius norm of the matrix.
func (m *Matrix) FrobeniusNorm() float64 {
	var scale, ssq float64 = 0, 1
	for _, t := range m.Tiles {
		for _, v := range t.Data {
			if v == 0 {
				continue
			}
			a := math.Abs(v)
			if scale < a {
				ssq = 1 + ssq*(scale/a)*(scale/a)
				scale = a
			} else {
				ssq += (a / scale) * (a / scale)
			}
		}
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbsDiff returns the element-wise max |m - other|.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.NT != other.NT || m.NB != other.NB {
		panic("tile: MaxAbsDiff with mismatched shapes")
	}
	var max float64
	for k, t := range m.Tiles {
		o := other.Tiles[k]
		for i, v := range t.Data {
			d := math.Abs(v - o.Data[i])
			if d > max {
				max = d
			}
		}
	}
	return max
}

// LowerTriangular returns a copy with strictly upper entries (dense-wise)
// zeroed, keeping the diagonal. Used to extract L after Cholesky.
func (m *Matrix) LowerTriangular() *Matrix {
	c := m.Clone()
	n := c.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c.Set(i, j, 0)
		}
	}
	return c
}

// UpperTriangular returns a copy with strictly lower entries zeroed,
// keeping the diagonal. Used to extract R after QR.
func (m *Matrix) UpperTriangular() *Matrix {
	c := m.Clone()
	n := c.N()
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			c.Set(i, j, 0)
		}
	}
	return c
}

// Symmetrize mirrors the lower triangle onto the upper triangle in place.
// Cholesky tasks only update the lower triangle; tests that reconstruct the
// matrix call this first.
func (m *Matrix) Symmetrize() {
	n := m.N()
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			m.Set(j, i, m.At(i, j))
		}
	}
}
