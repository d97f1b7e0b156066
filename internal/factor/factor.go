// Package factor expresses the paper's two case-study algorithms — tile
// Cholesky (Algorithm 1) and tile QR (Algorithm 2) — and the unpivoted
// tile LU as serial streams of superscalar tasks with read/write data
// annotations, exactly as a PLASMA user would insert them into QUARK,
// StarPU or OmpSs. Each algorithm has one definition, a generator over
// tile coordinates (Generate), and its consumers walk it: Insert submits
// the tasks over the tiles of a matrix to a scheduler, for real (measured
// mode) or in simulation (the paper's contribution), and a capture
// analyzes them into a dependence DAG (Fig. 1). Stream keeps a stream as
// []Op, each task with its matrices, to execute it sequentially
// (reference) or list it (Fig. 2).
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

// Op is one task of a tile algorithm kept with the matrices it runs on:
// the generator's Task — kernel class, priority and operands — whose
// operands name tiles of a and, for QR's T operands, of t. A []Op is the
// retained form of a stream, for RunSequential and listings; a scheduler
// run takes the generator's tasks straight from Insert.
type Op struct {
	Task
	a, t *tile.Matrix
}

// argTiles holds a task's argument tiles by value, so Body allocates
// nothing; TSMQR's four arguments are the most any kernel takes.
type argTiles [4]*tile.Tile

// Body performs the real computation on the op's argument tiles. It
// returns an error for numerical failures (a non-SPD Cholesky pivot tile,
// a zero LU pivot) and for an op whose stream was built over shape-only
// tiles: such a stream exists to be captured or simulated, and executing
// it is a caller bug that must not pass for a successful kernel.
func (o Op) Body() error {
	tiles, err := o.tiles(o.a, o.t)
	if err != nil {
		return err
	}
	return o.run(tiles)
}

// Label renders the instance like "DTSMQR(A10,T10,A01,A11)" — class plus
// argument names.
func (o Op) Label() string {
	var b [64]byte
	return string(o.AppendLabel(b[:0]))
}

// String renders the op in the style of the paper's Fig. 2 task listing,
// for example "tsmqr( A01^rw, A11^rw, A10^r, T10^r )".
func (o Op) String() string {
	s := string(o.Class) + "("
	for i, a := range o.Args {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s^%s", a, a.Mode())
	}
	return s + ")"
}

// SchedArgs returns the op's scheduler arguments: each operand's tile and
// mode.
func (o Op) SchedArgs() []sched.Arg {
	out := make([]sched.Arg, len(o.Args))
	o.fillArgs(out, o.a, o.t)
	return out
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

// String renders the operand's argument name: matrix, tile row, tile
// column, like "A10".
func (o Operand) String() string {
	var b [16]byte
	return string(o.appendName(b[:0]))
}

func (o Operand) appendName(dst []byte) []byte {
	return appendIndex(appendIndex(append(dst, o.Matrix()), o.I()), o.J())
}

// in returns the tile the operand names among the tiles of a and, for a
// T operand, of t.
func (o Operand) in(a, t *tile.Matrix) *tile.Tile {
	m := a
	if o.Matrix() == 'T' {
		m = t
	}
	return m.Tiles[o.I()+o.J()*m.NT]
}

// Task is one task of a tile algorithm as its generator emits it: the
// kernel class, the priority and the operands, in the order the task
// declares them. An Op is a Task kept with the matrices it runs on.
type Task struct {
	Class    kernels.Class
	Priority int
	Args     []Operand
	// run is the kernel call on the argument tiles, which it receives in
	// Args order. It captures nothing, so all tasks of a kind share one
	// function value and a walk allocates no closures.
	run func(t argTiles) error
}

// AppendLabel appends the task's label, like "DTSMQR(A10,T10,A01,A11)" —
// class plus argument names — to dst and returns the extended slice.
func (t *Task) AppendLabel(dst []byte) []byte {
	dst = append(dst, t.Class...)
	dst = append(dst, '(')
	for i, a := range t.Args {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = a.appendName(dst)
	}
	return append(dst, ')')
}

// fillArgs writes the task's scheduler arguments over the tiles of a and
// t into out (len(t.Args)).
func (t *Task) fillArgs(out []sched.Arg, a, m *tile.Matrix) {
	for i, o := range t.Args {
		out[i] = sched.Arg{Handle: o.in(a, m), Mode: o.Mode()}
	}
}

// tiles returns the task's argument tiles among those of a and m, in Args
// order, or an error naming the first one that is a shape without
// element storage.
func (t *Task) tiles(a, m *tile.Matrix) (argTiles, error) {
	var tiles argTiles
	for i, o := range t.Args {
		tl := o.in(a, m)
		if tl.Data == nil {
			var b [64]byte
			return tiles, fmt.Errorf("factor: %s cannot execute: argument %s is a shape-only tile without element storage (build the stream over workload.ForAlgorithm matrices to run kernels)",
				t.AppendLabel(b[:0]), o)
		}
		tiles[i] = tl
	}
	return tiles, nil
}

// thunk returns the task's kernel call bound to its tiles of a and m, for
// a task body that outlives the generator's reuse of t; executing it
// reports what Op.Body would.
func (t *Task) thunk(a, m *tile.Matrix) func() error {
	tiles, err := t.tiles(a, m)
	if err != nil {
		return func() error { return err }
	}
	run := t.run
	return func() error { return run(tiles) }
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
// algorithm: Insert and Stream walk it over the tiles of matrices, and a
// capture that needs no tiles takes the tasks straight from it. emit
// receives a Task that is reused for the next one, so it is valid only
// during the call. Supported names: "cholesky" (alias "chol"), "qr" and
// "lu". An nt below 1 emits nothing.
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

// stream accumulates the ops of one algorithm over the tiles of a and t
// from a walk of its generator. Both slices are sized exactly by the
// caller; the ops' operand lists are cut from args.
type stream struct {
	gen
	a, t *tile.Matrix
	ops  []Op
	args []Operand
}

func (s *stream) emit(t *Task) {
	op := Op{Task: *t, a: s.a, t: s.t}
	op.Args = slab.Carve(&s.args, len(t.Args))
	copy(op.Args, t.Args)
	s.ops = append(s.ops, op)
}

// build returns walk's op stream over the tiles of a and, for QR, t: each
// generated task kept with the matrices, in two allocations sized by a
// first walk.
func build(walk func(int, *gen), a, t *tile.Matrix) []Op {
	size := measure(walk, a.NT)
	s := &stream{a: a, t: t, ops: make([]Op, 0, size.Tasks), args: make([]Operand, 0, size.Args)}
	s.sink = s
	walk(a.NT, &s.gen)
	return s.ops
}

// walkOver returns the named algorithm's generator after checking that a
// and, for QR, t are matrices it can run over.
func walkOver(algorithm string, a, t *tile.Matrix) (func(int, *gen), error) {
	walk := generator(algorithm)
	switch {
	case walk == nil:
		return nil, fmt.Errorf("factor: unknown algorithm %q", algorithm)
	case algorithm != "qr":
	case t == nil:
		return nil, fmt.Errorf("factor: qr requires a T matrix")
	case t.NT != a.NT || t.NB != a.NB:
		return nil, fmt.Errorf("factor: QR T matrix shape mismatch")
	}
	return walk, nil
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
func Cholesky(a *tile.Matrix) []Op { return build(choleskyTasks, a, nil) }

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
func QR(a, t *tile.Matrix) []Op {
	if _, err := walkOver("qr", a, t); err != nil {
		panic(err)
	}
	return build(qrTasks, a, t)
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
	walk, err := walkOver(algorithm, a, t)
	if err != nil {
		return nil, err
	}
	return build(walk, a, t), nil
}
