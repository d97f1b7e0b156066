package factor

import (
	"math"

	"supersim/internal/hazard"
	"supersim/internal/kernels"
	"supersim/internal/tile"
)

// LU returns the serial task stream of the tile LU factorization without
// pivoting (PLASMA dgetrf_nopiv): A = L*U with L unit lower triangular.
// The matrix must be such that all pivots stay nonzero (the workload
// generator's diagonally dominant matrices guarantee it). A is factored in
// place: U in the upper triangle (with diagonal), L strictly below (unit
// diagonal implicit).
func LU(a *tile.Matrix) []Op { return (*Buffers)(nil).lu(a) }

func (b *Buffers) lu(a *tile.Matrix) []Op {
	nt := a.NT
	nops, nargs := 0, 0
	for r := 0; r < nt; r++ { // step k leaves r = nt-k-1 trailing tile rows and columns
		nops += 1 + 2*r + r*r    // GETRF, r TRSMU, r TRSML, r² GEMM
		nargs += 1 + 4*r + 3*r*r // with 1, 2, 2 and 3 arguments
	}
	s := b.newStream(nops, nargs)
	A := newOperands("A", a)
	for k := 0; k < nt; k++ {
		s.add(kernels.ClassGETRF, prioPanel,
			func(t argTiles) error { return kernels.Getrf(t[0]) },
			A.at(k, k, hazard.ReadWrite))
		for j := k + 1; j < nt; j++ {
			s.add(kernels.ClassTRSMU, prioSolve,
				func(t argTiles) error { kernels.TrsmLowerUnit(t[0], t[1]); return nil },
				A.at(k, k, hazard.Read), A.at(k, j, hazard.ReadWrite))
		}
		for i := k + 1; i < nt; i++ {
			s.add(kernels.ClassTRSML, prioSolve,
				func(t argTiles) error { kernels.TrsmUpperRight(t[0], t[1]); return nil },
				A.at(k, k, hazard.Read), A.at(i, k, hazard.ReadWrite))
		}
		for i := k + 1; i < nt; i++ {
			for j := k + 1; j < nt; j++ {
				s.add(kernels.ClassGEMM, prioUpdate,
					func(t argTiles) error {
						kernels.Gemm(false, false, -1, t[1], t[2], 1, t[0])
						return nil
					},
					A.at(i, j, hazard.ReadWrite), A.at(i, k, hazard.Read), A.at(k, j, hazard.Read))
			}
		}
	}
	return s.ops
}

// LUResidual returns ||A - L*U||_F / ||A||_F where factored holds the
// in-place tile LU (no pivoting) result of orig.
func LUResidual(orig, factored *tile.Matrix) float64 {
	n := factored.N()
	// Extract L (unit lower) and U (upper including diagonal) densely.
	l := tile.NewMatrix(factored.NT, factored.NB)
	u := tile.NewMatrix(factored.NT, factored.NB)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := 0; j < i; j++ {
			l.Set(i, j, factored.At(i, j))
		}
		for j := i; j < n; j++ {
			u.Set(i, j, factored.At(i, j))
		}
	}
	rebuilt := tile.NewMatrix(factored.NT, factored.NB)
	for i := 0; i < factored.NT; i++ {
		for j := 0; j < factored.NT; j++ {
			for k := 0; k < factored.NT; k++ {
				kernels.Gemm(false, false, 1, l.Tile(i, k), u.Tile(k, j), 1, rebuilt.Tile(i, j))
			}
		}
	}
	var num, den float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := rebuilt.At(i, j) - orig.At(i, j)
			num += d * d
			v := orig.At(i, j)
			den += v * v
		}
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}
