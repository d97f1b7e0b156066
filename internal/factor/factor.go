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

// Label renders the instance like "DTSMQR(A10,T10,A01,A11)" — class plus
// argument names.
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

// Operand is one argument of a task as an algorithm's generator emits it:
// a tile of one of the algorithm's matrices, by matrix and tile
// coordinates, and the access the task declares on it. It is one word —
// tile coordinate i in bits 0–23, j in 24–47, the matrix in 48–55, the
// mode in 56–63 — which a generator writes and its sink reads whole.
type Operand uint64

// operand returns the operand naming tile (i, j) of matrix in mode;
// coordinates are below 2^24.
func operand(matrix byte, i, j int, mode hazard.Access) Operand {
	return Operand(uint64(i) | uint64(j)<<24 | uint64(matrix)<<48 | uint64(mode)<<56)
}

// Matrix returns the operand's matrix: 'A', or 'T' for QR's
// block-reflector factors.
func (o Operand) Matrix() byte { return byte(o >> 48) }

// I returns the operand's tile row.
func (o Operand) I() int { return int(o & (1<<24 - 1)) }

// J returns the operand's tile column.
func (o Operand) J() int { return int(o >> 24 & (1<<24 - 1)) }

// Mode returns the access the task declares on the operand.
func (o Operand) Mode() hazard.Access { return hazard.Access(o >> 56) }

// Tile returns the operand's index among the tiles of the algorithm's
// matrices at nt tiles per dimension: A's tiles column by column, then
// T's. Distinct tiles have distinct indexes below 2·nt², so the index
// keys a tile where a stream over matrices hands out its *tile.Tile.
func (o Operand) Tile(nt int) int {
	idx := o.I() + o.J()*nt
	if o.Matrix() == 'T' {
		idx += nt * nt
	}
	return idx
}

// Task is one task of a tile algorithm as its generator emits it: the
// kernel class, the priority and the operands, in the order the task
// declares them. An Op is a Task over the tiles of actual matrices.
type Task struct {
	Class    kernels.Class
	Priority int
	Args     []Operand
	run      func(t argTiles) error
}

// AppendLabel appends the label of the task's op (Op.Label), like
// "DTSMQR(A10,T10,A01,A11)", to dst and returns the extended slice.
func (t *Task) AppendLabel(dst []byte) []byte {
	dst = append(dst, t.Class...)
	dst = append(dst, '(')
	for i, a := range t.Args {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendIndex(append(dst, a.Matrix()), a.I())
		dst = appendIndex(dst, a.J())
	}
	return append(dst, ')')
}

// appendIndex appends the decimal rendering of the tile index v ≥ 0, with
// the one or two digits nearly every index has written directly.
func appendIndex(dst []byte, v int) []byte {
	switch {
	case 0 <= v && v < 10:
		return append(dst, byte('0'+v))
	case 10 <= v && v < 100:
		return append(dst, byte('0'+v/10), byte('0'+v%10))
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

// labelLen is the length of the task's label.
func (t *Task) labelLen() int {
	n := len(t.Class) + 2 + max(len(t.Args)-1, 0)
	for _, a := range t.Args {
		n += 1 + digits(a.I()) + digits(a.J())
	}
	return n
}

// digits is the length of the decimal rendering of v ≥ 0.
func digits(v int) int {
	switch {
	case v < 10:
		return 1
	case v < 100:
		return 2
	}
	return len(strconv.Itoa(v))
}

// gen is what a generator emits into: each task goes to sink in one Task
// that gen reuses, so a walk allocates nothing per task. A consumer with
// state of its own embeds a gen and is its own sink, so that a walk costs
// it one allocation.
type gen struct {
	cur  Task
	args [4]Operand // TSMQR's four operands are the most any kernel takes
	sink interface{ emit(t *Task) }
}

// task emits one task. run receives the argument tiles in args order.
func (g *gen) task(class kernels.Class, priority int, run func(t argTiles) error, args ...Operand) {
	// A word at a time: a block copy's wider loads would each span two of
	// the caller's stores and wait for them to retire.
	for i, a := range args {
		g.args[i] = a
	}
	g.cur.Class, g.cur.Priority, g.cur.Args, g.cur.run = class, priority, g.args[:len(args)], run
	g.sink.emit(&g.cur)
}

// emitFunc is a function as a gen's sink.
type emitFunc func(t *Task)

func (f emitFunc) emit(t *Task) { f(t) }

// aTile and tTile name an operand in A and in T.
func aTile(i, j int, mode hazard.Access) Operand { return operand('A', i, j, mode) }
func tTile(i, j int, mode hazard.Access) Operand { return operand('T', i, j, mode) }

// generator returns the walk of the named algorithm's tasks at nt tiles
// per dimension, or nil for a name it does not know.
func generator(algorithm string) func(nt int, g *gen) {
	switch algorithm {
	case "cholesky", "chol":
		return choleskyTasks
	case "qr":
		return qrTasks
	case "lu":
		return luTasks
	}
	return nil
}

// Generate calls emit with each task of the named algorithm's stream at nt
// tiles per dimension, in stream order. It is the one definition of each
// algorithm: Stream builds its ops from it, and a capture that needs no
// tiles takes the tasks straight from it. emit receives a Task that is
// reused for the next one, so it is valid only during the call. Supported
// names: "cholesky" (alias "chol"), "qr" and "lu". An nt below 1 emits
// nothing.
func Generate(algorithm string, nt int, emit func(*Task)) error {
	walk := generator(algorithm)
	if walk == nil {
		return fmt.Errorf("factor: unknown algorithm %q", algorithm)
	}
	walk(nt, &gen{sink: emitFunc(emit)})
	return nil
}

// Size is what an algorithm's stream declares at one nt: its tasks, their
// operands, and the bytes of a string table that holds every task's
// label — distinct within a stream, since a label names the task's
// tiles — and each class once.
type Size struct {
	Tasks, Args, StringBytes int
}

// Measure returns the Size of the named algorithm's stream at nt, counted
// over a walk of its generator, so it cannot disagree with the stream.
func Measure(algorithm string, nt int) (Size, error) {
	walk := generator(algorithm)
	if walk == nil {
		return Size{}, fmt.Errorf("factor: unknown algorithm %q", algorithm)
	}
	return measure(walk, nt), nil
}

func measure(walk func(int, *gen), nt int) Size {
	m := &sizer{}
	m.sink = m
	walk(nt, &m.gen)
	return m.size
}

// sizer counts a walk's Size.
type sizer struct {
	gen
	size    Size
	classes [4]kernels.Class // every algorithm has four
	n       int              // classes seen
	last    kernels.Class    // the previous task's
}

func (m *sizer) emit(t *Task) {
	m.size.Tasks++
	m.size.Args += len(t.Args)
	m.size.StringBytes += t.labelLen()
	if t.Class != m.last && !slices.Contains(m.classes[:m.n], t.Class) {
		m.classes[m.n] = t.Class
		m.n++
		m.size.StringBytes += len(t.Class)
	}
	m.last = t.Class
}

// operands hands out the tiles of an algorithm's matrices as task
// arguments. A tile's argument name ("A10": matrix, tile row, tile column)
// is built the first time the tile is used and shared by every op that
// touches it.
type operands struct {
	a, t  *tile.Matrix
	names []string // indexed by Operand.Tile; "" until first use
}

func (o *operands) at(op Operand) OpArg {
	m := o.a
	if op.Matrix() == 'T' {
		m = o.t
	}
	idx := op.Tile(m.NT)
	if o.names[idx] == "" {
		o.names[idx] = string(op.Matrix()) + strconv.Itoa(op.I()) + strconv.Itoa(op.J())
	}
	return OpArg{Name: o.names[idx], Handle: m.Tiles[op.I()+op.J()*m.NT], Mode: op.Mode()}
}

// stream accumulates the ops of one algorithm from a walk of its
// generator. Both slices are sized exactly by the caller; the ops'
// argument lists are cut from args.
type stream struct {
	gen
	operands
	ops  []Op
	args []OpArg
}

func (s *stream) emit(t *Task) {
	own := slab.Carve(&s.args, len(t.Args))
	for i, op := range t.Args {
		own[i] = s.at(op)
	}
	s.ops = append(s.ops, Op{Class: t.Class, Args: own, Priority: t.Priority, run: t.run})
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

// build returns walk's op stream over the tiles of a and, for QR, t, cut
// from b or, when b is nil, allocated: each generated task becomes an op
// whose arguments are the named tiles.
func (b *Buffers) build(walk func(int, *gen), a, t *tile.Matrix) []Op {
	size := measure(walk, a.NT)
	s := &stream{operands: operands{a: a, t: t}}
	s.sink = s
	tiles := len(a.Tiles)
	if t != nil {
		tiles += len(t.Tiles)
	}
	s.names = make([]string, tiles)
	if b == nil {
		s.ops, s.args = make([]Op, 0, size.Tasks), make([]OpArg, 0, size.Args)
	} else {
		s.ops, s.args = slab.Carve(&b.ops, size.Tasks)[:0], slab.Carve(&b.args, size.Args)[:0]
	}
	walk(a.NT, &s.gen)
	return s.ops
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
func Cholesky(a *tile.Matrix) []Op { return (*Buffers)(nil).build(choleskyTasks, a, nil) }

func choleskyTasks(nt int, g *gen) {
	for k := 0; k < nt; k++ {
		g.task(kernels.ClassPOTRF, prioPanel,
			func(t argTiles) error { return kernels.Potrf(t[0]) },
			aTile(k, k, hazard.ReadWrite))
		for i := k + 1; i < nt; i++ {
			g.task(kernels.ClassTRSM, prioSolve,
				func(t argTiles) error { kernels.Trsm(t[0], t[1]); return nil },
				aTile(k, k, hazard.Read), aTile(i, k, hazard.ReadWrite))
			g.task(kernels.ClassSYRK, prioUpdate,
				func(t argTiles) error { kernels.Syrk(-1, t[0], 1, t[1]); return nil },
				aTile(i, k, hazard.Read), aTile(i, i, hazard.ReadWrite))
		}
		for i := k + 2; i < nt; i++ {
			for j := k + 1; j < i; j++ {
				g.task(kernels.ClassGEMM, prioUpdate,
					func(t argTiles) error {
						kernels.Gemm(false, true, -1, t[1], t[2], 1, t[0])
						return nil
					},
					aTile(i, j, hazard.ReadWrite), aTile(i, k, hazard.Read), aTile(j, k, hazard.Read))
			}
		}
	}
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
	return b.build(qrTasks, a, t)
}

func qrTasks(nt int, g *gen) {
	for k := 0; k < nt; k++ {
		g.task(kernels.ClassGEQRT, prioPanel,
			func(t argTiles) error { kernels.Geqrt(t[0], t[1]); return nil },
			aTile(k, k, hazard.ReadWrite), tTile(k, k, hazard.Write))
		for n := k + 1; n < nt; n++ {
			g.task(kernels.ClassORMQR, prioSolve,
				func(t argTiles) error { kernels.Ormqr(t[0], t[1], t[2]); return nil },
				aTile(k, k, hazard.Read), tTile(k, k, hazard.Read), aTile(k, n, hazard.ReadWrite))
		}
		for m := k + 1; m < nt; m++ {
			g.task(kernels.ClassTSQRT, prioSolve,
				func(t argTiles) error { kernels.Tsqrt(t[0], t[1], t[2]); return nil },
				aTile(k, k, hazard.ReadWrite), aTile(m, k, hazard.ReadWrite), tTile(m, k, hazard.Write))
			for n := k + 1; n < nt; n++ {
				g.task(kernels.ClassTSMQR, prioUpdate,
					func(t argTiles) error {
						kernels.Tsmqr(t[2], t[3], t[0], t[1])
						return nil
					},
					aTile(m, k, hazard.Read), tTile(m, k, hazard.Read), aTile(k, n, hazard.ReadWrite), aTile(m, n, hazard.ReadWrite))
			}
		}
	}
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
		return b.build(choleskyTasks, a, nil), nil
	case "qr":
		if t == nil {
			return nil, fmt.Errorf("factor: qr requires a T matrix")
		}
		return b.qr(a, t), nil
	case "lu":
		return b.build(luTasks, a, nil), nil
	default:
		return nil, fmt.Errorf("factor: unknown algorithm %q", algorithm)
	}
}
