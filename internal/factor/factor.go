// Package factor expresses the paper's two case-study algorithms — tile
// Cholesky (Algorithm 1) and tile QR (Algorithm 2) — as serial streams of
// superscalar tasks with read/write data annotations, exactly as a PLASMA
// user would insert them into QUARK, StarPU or OmpSs. The same stream can
// be executed sequentially (reference), scheduled for real (measured mode),
// scheduled in simulation (the paper's contribution), or analyzed into a
// dependence DAG (Fig. 1).
package factor

import (
	"fmt"
	"slices"
	"strconv"

	"supersim/internal/hazard"
	"supersim/internal/kernels"
	"supersim/internal/sched"
	"supersim/internal/slab"
	"supersim/internal/tile"
)

// OpArg is a named, access-annotated data reference of one task, carrying
// the information shown in the paper's Fig. 2 decorations (A^rw, T^r, ...).
type OpArg struct {
	Name   string
	Handle any
	Mode   hazard.Access
}

// Op is one task of a tile algorithm: the kernel class, the
// access-annotated arguments, a relative priority, and the real compute
// body.
type Op struct {
	Class    kernels.Class
	Args     []OpArg
	Priority int
	// run is the kernel call on the argument tiles, which it receives in
	// Args order. It captures nothing, so all ops of a kind share one
	// function value and building a stream allocates no closures.
	run func(t argTiles) error
}

// argTiles holds an op's argument tiles by value, so Body allocates
// nothing; TSMQR's four arguments are the most any kernel takes.
type argTiles [4]*tile.Tile

// Body performs the real computation on the op's argument tiles. It
// returns an error for numerical failures (a non-SPD Cholesky pivot tile,
// a zero LU pivot) and for an op whose stream was built over shape-only
// tiles: such a stream exists to be captured or simulated, and executing
// it is a caller bug that must not pass for a successful kernel.
func (o Op) Body() error {
	var tiles argTiles
	for i, a := range o.Args {
		t := a.Handle.(*tile.Tile)
		if t.Data == nil {
			return fmt.Errorf("factor: %s cannot execute: argument %s is a shape-only tile without element storage (build the stream over workload.ForAlgorithm matrices to run kernels)",
				o.Label(), a.Name)
		}
		tiles[i] = t
	}
	return o.run(tiles)
}

// Label renders the instance like "DTSMQR(1,2,0)" — class plus tile indices.
func (o Op) Label() string {
	var b [64]byte
	return string(o.AppendLabel(b[:0]))
}

// labelLen is len(o.Label()): class, parentheses, names, commas.
func (o *Op) labelLen() int {
	n := len(o.Class) + 2 + max(len(o.Args)-1, 0)
	for _, a := range o.Args {
		n += len(a.Name)
	}
	return n
}

// LabelBytes is the size of the string table a capture of ops interns:
// every op's label — unique within a stream, since it names the op's
// tiles — and each distinct class name once.
func LabelBytes(ops []Op) int {
	n := 0
	classes := make([]kernels.Class, 0, 8) // every algorithm has four
	for i := range ops {
		o := &ops[i]
		n += o.labelLen()
		if !slices.Contains(classes, o.Class) {
			classes = append(classes, o.Class)
			n += len(o.Class)
		}
	}
	return n
}

// AppendLabel appends the label to dst and returns the extended slice.
func (o *Op) AppendLabel(dst []byte) []byte {
	dst = append(dst, o.Class...)
	dst = append(dst, '(')
	for i, a := range o.Args {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, a.Name...)
	}
	return append(dst, ')')
}

// String renders the op in the style of the paper's Fig. 2 task listing,
// for example "tsmqr( A01^rw, A11^rw, A10^r, T10^r )".
func (o Op) String() string {
	s := string(o.Class) + "("
	for i, a := range o.Args {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s^%s", a.Name, a.Mode)
	}
	return s + ")"
}

// SchedArgs converts the op's arguments to scheduler arguments.
func (o Op) SchedArgs() []sched.Arg {
	out := make([]sched.Arg, len(o.Args))
	o.FillSchedArgs(out)
	return out
}

// FillSchedArgs writes the op's scheduler arguments into out (len(o.Args)).
func (o *Op) FillSchedArgs(out []sched.Arg) {
	for i, a := range o.Args {
		out[i] = sched.Arg{Handle: a.Handle, Mode: a.Mode}
	}
}

// operands hands out the tiles of one matrix as task arguments. A tile's
// argument name ("A10": prefix, tile row, tile column) is built the first
// time the tile is used and shared by every op that touches it.
type operands struct {
	m      *tile.Matrix
	prefix string
	names  []string // indexed like m.Tiles; "" until first use
}

func newOperands(prefix string, m *tile.Matrix) *operands {
	return &operands{m: m, prefix: prefix, names: make([]string, len(m.Tiles))}
}

func (o *operands) at(i, j int, mode hazard.Access) OpArg {
	idx := i + j*o.m.NT
	if o.names[idx] == "" {
		o.names[idx] = o.prefix + strconv.Itoa(i) + strconv.Itoa(j)
	}
	return OpArg{Name: o.names[idx], Handle: o.m.Tiles[idx], Mode: mode}
}

// stream accumulates the ops of one algorithm. Both slices are sized
// exactly by the caller; the ops' argument lists are cut from args.
type stream struct {
	ops  []Op
	args []OpArg
}

// Buffers is scratch memory for streams and their scheduler runs that a
// caller recycles instead of allocating per stream: the op slice and
// argument slab Stream fills, and the task and argument slabs Insert cuts
// the sched.Tasks from. A nil *Buffers is valid and allocates afresh on
// every call, which is what the package-level Stream and Insert do.
// Everything cut from a Buffers stays valid until Reset; the zero value is
// ready to use. Not safe for concurrent use.
type Buffers struct {
	ops   []Op
	args  []OpArg
	tasks []sched.Task
	targs []sched.Arg
}

// Reset zeroes everything cut from b since the last Reset and makes it
// available again. Zeroed, b keeps no tile, task body or engine
// bookkeeping alive, and a recycled sched.Task starts as a fresh one does.
// Call it only once no stream, task or run uses that memory any more.
func (b *Buffers) Reset() {
	clear(b.ops)
	clear(b.args)
	clear(b.tasks)
	clear(b.targs)
	b.ops, b.args, b.tasks, b.targs = b.ops[:0], b.args[:0], b.tasks[:0], b.targs[:0]
}

// newStream returns an empty stream with room for nops ops and nargs
// arguments, cut from b or, when b is nil, allocated.
func (b *Buffers) newStream(nops, nargs int) stream {
	if b == nil {
		return stream{ops: make([]Op, 0, nops), args: make([]OpArg, 0, nargs)}
	}
	return stream{ops: slab.Carve(&b.ops, nops)[:0], args: slab.Carve(&b.args, nargs)[:0]}
}

// add appends one op. run receives the argument tiles in args order.
func (s *stream) add(class kernels.Class, priority int, run func(t argTiles) error, args ...OpArg) {
	own := slab.Carve(&s.args, len(args))
	copy(own, args)
	s.ops = append(s.ops, Op{Class: class, Args: own, Priority: priority, run: run})
}

// Task priorities: panel-factorization kernels ahead of updates, so that
// priority-aware policies advance the critical path (the standard PLASMA
// prioritization).
const (
	prioPanel  = 2
	prioSolve  = 1
	prioUpdate = 0
)

// Cholesky returns the serial task stream of the tile Cholesky
// factorization A = L*L^T (Algorithm 1 of the paper). The matrix is
// factored in place (lower triangle).
func Cholesky(a *tile.Matrix) []Op { return (*Buffers)(nil).cholesky(a) }

func (b *Buffers) cholesky(a *tile.Matrix) []Op {
	nt := a.NT
	nops, nargs := 0, 0
	for r := 0; r < nt; r++ { // step k leaves r = nt-k-1 tile rows below the panel
		nops += 1 + 2*r + r*(r-1)/2      // POTRF, r TRSM, r SYRK, r(r-1)/2 GEMM
		nargs += 1 + 4*r + 3*(r*(r-1)/2) // with 1, 2, 2 and 3 arguments
	}
	s := b.newStream(nops, nargs)
	A := newOperands("A", a)
	for k := 0; k < nt; k++ {
		s.add(kernels.ClassPOTRF, prioPanel,
			func(t argTiles) error { return kernels.Potrf(t[0]) },
			A.at(k, k, hazard.ReadWrite))
		for i := k + 1; i < nt; i++ {
			s.add(kernels.ClassTRSM, prioSolve,
				func(t argTiles) error { kernels.Trsm(t[0], t[1]); return nil },
				A.at(k, k, hazard.Read), A.at(i, k, hazard.ReadWrite))
			s.add(kernels.ClassSYRK, prioUpdate,
				func(t argTiles) error { kernels.Syrk(-1, t[0], 1, t[1]); return nil },
				A.at(i, k, hazard.Read), A.at(i, i, hazard.ReadWrite))
		}
		for i := k + 2; i < nt; i++ {
			for j := k + 1; j < i; j++ {
				s.add(kernels.ClassGEMM, prioUpdate,
					func(t argTiles) error {
						kernels.Gemm(false, true, -1, t[1], t[2], 1, t[0])
						return nil
					},
					A.at(i, j, hazard.ReadWrite), A.at(i, k, hazard.Read), A.at(j, k, hazard.Read))
			}
		}
	}
	return s.ops
}

// QR returns the serial task stream of the tile QR factorization
// (Algorithm 2 of the paper). a is factored in place (R in the upper
// triangle, Householder blocks below); t receives the block-reflector T
// factors and must be an NT x NT tile matrix of the same tile size.
func QR(a, t *tile.Matrix) []Op { return (*Buffers)(nil).qr(a, t) }

func (b *Buffers) qr(a, t *tile.Matrix) []Op {
	if t.NT != a.NT || t.NB != a.NB {
		panic("factor: QR T matrix shape mismatch")
	}
	nt := a.NT
	nops, nargs := 0, 0
	for r := 0; r < nt; r++ { // step k leaves r = nt-k-1 trailing tile rows and columns
		nops += 1 + 2*r + r*r    // GEQRT, r ORMQR, r TSQRT, r² TSMQR
		nargs += 2 + 6*r + 4*r*r // with 2, 3, 3 and 4 arguments
	}
	s := b.newStream(nops, nargs)
	A, T := newOperands("A", a), newOperands("T", t)
	for k := 0; k < nt; k++ {
		s.add(kernels.ClassGEQRT, prioPanel,
			func(t argTiles) error { kernels.Geqrt(t[0], t[1]); return nil },
			A.at(k, k, hazard.ReadWrite), T.at(k, k, hazard.Write))
		for n := k + 1; n < nt; n++ {
			s.add(kernels.ClassORMQR, prioSolve,
				func(t argTiles) error { kernels.Ormqr(t[0], t[1], t[2]); return nil },
				A.at(k, k, hazard.Read), T.at(k, k, hazard.Read), A.at(k, n, hazard.ReadWrite))
		}
		for m := k + 1; m < nt; m++ {
			s.add(kernels.ClassTSQRT, prioSolve,
				func(t argTiles) error { kernels.Tsqrt(t[0], t[1], t[2]); return nil },
				A.at(k, k, hazard.ReadWrite), A.at(m, k, hazard.ReadWrite), T.at(m, k, hazard.Write))
			for n := k + 1; n < nt; n++ {
				s.add(kernels.ClassTSMQR, prioUpdate,
					func(t argTiles) error {
						kernels.Tsmqr(t[2], t[3], t[0], t[1])
						return nil
					},
					A.at(m, k, hazard.Read), T.at(m, k, hazard.Read), A.at(k, n, hazard.ReadWrite), A.at(m, n, hazard.ReadWrite))
			}
		}
	}
	return s.ops
}

// Stream identifies a tile algorithm by name and builds its op stream.
// Supported names: "cholesky" (alias "chol"), "qr" and "lu".
func Stream(algorithm string, a, t *tile.Matrix) ([]Op, error) {
	return (*Buffers)(nil).Stream(algorithm, a, t)
}

// Stream is the package-level Stream with the op slice and the argument
// slab cut from b.
func (b *Buffers) Stream(algorithm string, a, t *tile.Matrix) ([]Op, error) {
	switch algorithm {
	case "cholesky", "chol":
		return b.cholesky(a), nil
	case "qr":
		if t == nil {
			return nil, fmt.Errorf("factor: qr requires a T matrix")
		}
		return b.qr(a, t), nil
	case "lu":
		return b.lu(a), nil
	default:
		return nil, fmt.Errorf("factor: unknown algorithm %q", algorithm)
	}
}
