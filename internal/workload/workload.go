// Package workload generates the input matrices and parameter sweeps used
// by the experiments: seeded random general and symmetric-positive-definite
// tiled matrices matching the paper's Cholesky and QR case studies.
package workload

import (
	"supersim/internal/rng"
	"supersim/internal/tile"
)

// RandomGeneral returns an nt x nt tile matrix (tile size nb) with entries
// uniform in [-1, 1), deterministically from seed. Suitable for QR.
func RandomGeneral(nt, nb int, seed uint64) *tile.Matrix {
	src := rng.New(seed)
	m := tile.NewMatrix(nt, nb)
	for _, t := range m.Tiles {
		for i := range t.Data {
			t.Data[i] = 2*src.Float64() - 1
		}
	}
	return m
}

// RandomSPD returns a symmetric positive definite tile matrix: a random
// symmetric matrix with N added to the diagonal (diagonally dominant,
// hence SPD), the standard construction for Cholesky test problems.
func RandomSPD(nt, nb int, seed uint64) *tile.Matrix {
	src := rng.New(seed)
	m := tile.NewMatrix(nt, nb)
	n := m.N()
	// Fill the lower triangle (and diagonal), mirror to the upper.
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := 2*src.Float64() - 1
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+float64(n))
	}
	return m
}

// RandomDiagonallyDominant returns a general (non-symmetric) matrix with
// N added to the diagonal, guaranteeing nonzero pivots for LU without
// pivoting.
func RandomDiagonallyDominant(nt, nb int, seed uint64) *tile.Matrix {
	m := RandomGeneral(nt, nb, seed)
	n := m.N()
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+float64(n))
	}
	return m
}

// ForAlgorithm returns an input matrix suitable for the named algorithm
// ("cholesky"/"chol" need SPD, "qr" takes general, "lu" takes diagonally
// dominant), plus a fresh T matrix when the algorithm requires one (nil
// otherwise).
func ForAlgorithm(algorithm string, nt, nb int, seed uint64) (a, t *tile.Matrix) {
	switch algorithm {
	case "cholesky", "chol":
		return RandomSPD(nt, nb, seed), nil
	case "qr":
		return RandomGeneral(nt, nb, seed), tile.NewMatrix(nt, nb)
	case "lu":
		return RandomDiagonallyDominant(nt, nb, seed), nil
	default:
		return nil, nil
	}
}

// Shapes returns what ForAlgorithm returns for the same algorithm, without
// element storage (tile.NewShape): the inputs of every run that executes no
// kernel. Capture and simulation read only which tiles a task touches.
func Shapes(algorithm string, nt, nb int) (a, t *tile.Matrix) {
	switch algorithm {
	case "cholesky", "chol", "lu":
		return tile.NewShape(nt, nb), nil
	case "qr":
		return tile.NewShape(nt, nb), tile.NewShape(nt, nb)
	default:
		return nil, nil
	}
}

// Sweep is one performance-sweep point (matrix size in tiles at a fixed
// tile size), matching the x-axis of the paper's Figs. 8-10.
type Sweep struct {
	NT int // tiles per dimension
	NB int // tile size
}

// N returns the dense matrix order of the sweep point.
func (s Sweep) N() int { return s.NT * s.NB }

// PerfSweep returns the matrix-size series for the performance experiments:
// tile size nb with nt from 2 to maxNT, mirroring the paper's sweeps at
// tile size 200 (sizes scaled to the pure-Go kernel substrate).
func PerfSweep(nb, maxNT int) []Sweep {
	var out []Sweep
	for nt := 2; nt <= maxNT; nt++ {
		out = append(out, Sweep{NT: nt, NB: nb})
	}
	return out
}
