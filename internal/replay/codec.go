// The .dag binary codec: a versioned, CRC-framed encoding of an Arena
// that a reader can adopt without per-task unmarshalling.
//
// Layout (all integers little-endian):
//
//	header — 32 bytes
//	  [0:4)   magic "SDAG"
//	  [4:6)   format version (currently 1)
//	  [6:8)   flags (bit 0: payload is little-endian; always set)
//	  [8:16)  payload length
//	  [16:20) CRC-32 (IEEE) of the payload
//	  [20:32) reserved (zero)
//	payload — counts block, then the columns
//	  counts: 10 uint64 — tasks n, edges E, footprints F, strings S,
//	          string bytes B, workers, handles, label string index,
//	          two reserved
//	  duration   n × float64   (offset 80 from payload start: 8-aligned)
//	  classIdx   n × int32
//	  labelIdx   n × int32
//	  priority   n × int32
//	  ready      n × int32
//	  numThreads n × int32
//	  depOff     (n+1) × int32
//	  depPred    E × int32
//	  fpOff      (n+1) × int32
//	  fpHandle   F × int32
//	  strOff     (S+1) × int32
//	  where      n × uint8
//	  depKind    E × uint8  (hazard.EdgeKind: 0 none, 1 RaW, 2 WaR, 3 WaW)
//	  fpMode     F × uint8
//	  strBytes   B bytes
//
// The section order — 8-byte column first, then the 4-byte columns, then
// the byte columns — keeps every column naturally aligned relative to
// the frame start, so Load can alias an 8-aligned byte slice in place
// (unsafe.Slice over the column regions, unsafe.String over the string
// bytes — the arena keeps its string table in this same form) and fall
// back to a copying decode otherwise. Derived state (successor CSR,
// ready-queue levels) is never encoded; Load recomputes it, which both
// keeps frames smaller and guarantees the derived views are consistent
// with the columns whatever the bytes claim.
//
// Every count and offset is validated against the frame length before
// any sized allocation, so a hostile frame errors without panicking or
// over-allocating (FuzzDecode pins this).

package replay

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"unsafe"

	"supersim/internal/hazard"
	"supersim/internal/sched"
)

const (
	dagMagic   = "SDAG"
	dagVersion = 1
	// dagFlagLE marks a little-endian payload. Encode always sets it;
	// Load requires it (no big-endian writer exists).
	dagFlagLE     = 1 << 0
	dagHeaderLen  = 32
	dagCountsLen  = 10 * 8
	dagMaxEncoded = 1 << 40 // sanity bound on computed frame sizes
)

// hostLittleEndian reports whether this process stores integers
// little-endian (the alias fast path in Load requires it).
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// EncodedSize returns the exact frame size Encode will produce.
func (a *Arena) EncodedSize() int {
	n, e, f := uint64(a.n), uint64(len(a.depPred)), uint64(len(a.fpHandle))
	return int(dagHeaderLen + payloadSize(n, e, f, uint64(a.NumStrings()), uint64(len(a.strs))))
}

func payloadSize(n, e, f, s, b uint64) uint64 {
	i32 := 5*n + 2*(n+1) + e + f + (s + 1)
	return dagCountsLen + 8*n + 4*i32 + n + e + f + b
}

// Encode serializes the arena into a fresh .dag frame.
func (a *Arena) Encode() []byte {
	buf := make([]byte, a.EncodedSize())
	copy(buf[0:4], dagMagic)
	binary.LittleEndian.PutUint16(buf[4:6], dagVersion)
	binary.LittleEndian.PutUint16(buf[6:8], dagFlagLE)
	payload := buf[dagHeaderLen:]
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(payload)))

	counts := [10]uint64{
		uint64(a.n), uint64(len(a.depPred)), uint64(len(a.fpHandle)),
		uint64(a.NumStrings()), uint64(len(a.strs)),
		uint64(a.workers), uint64(a.handles), uint64(a.labelStr),
	}
	off := 0
	for _, c := range counts {
		binary.LittleEndian.PutUint64(payload[off:], c)
		off += 8
	}
	for _, d := range a.duration {
		binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(d))
		off += 8
	}
	putI32 := func(col []int32) {
		for _, v := range col {
			binary.LittleEndian.PutUint32(payload[off:], uint32(v))
			off += 4
		}
	}
	putI32(a.classIdx)
	putI32(a.labelIdx)
	putI32(a.priority)
	putI32(a.ready)
	putI32(a.numThr)
	putI32(a.depOff)
	putI32(a.depPred)
	putI32(a.fpOff)
	putI32(a.fpHandle)
	putI32(a.strOff)
	off += copy(payload[off:], a.where)
	off += copy(payload[off:], a.depKind)
	off += copy(payload[off:], a.fpMode)
	copy(payload[off:], a.strs)
	binary.LittleEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(payload))
	return buf
}

// Encoded encodes the arena into a fresh frame and returns the arena
// re-based onto it: the same graph, its columns and strings aliasing the
// frame, its derived views shared with a, and the frame as its Frame().
// The columns were validated when a was built, so the bytes just written
// are not checked again. Whoever keeps the result instead of a holds one
// frame plus the successor lists — the form a Load of the same frame has.
// On a host whose integers are big-endian the columns cannot alias the
// frame, and the result keeps a's.
func (a *Arena) Encoded() *Arena {
	r := *a
	r.buf = a.Encode()
	if canAlias(r.buf) {
		r.adopt(r.buf[dagHeaderLen:], uint64(len(a.depPred)), uint64(len(a.fpHandle)),
			uint64(a.NumStrings()), uint64(len(a.strs)), true)
	}
	return &r
}

// Frame returns the .dag frame the arena lives in — Load's input, or the
// frame Encoded wrote — and nil for an arena built by a capture or
// BuildArena. The bytes are shared: do not modify them.
func (a *Arena) Frame() []byte { return a.buf }

// AliasesFrame reports whether every column and the string bytes lie
// inside Frame(), so the arena holds nothing of its own beyond the derived
// views: true after a Load of an 8-aligned frame and after Encoded on a
// little-endian host.
func (a *Arena) AliasesFrame() bool {
	if len(a.buf) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(a.buf)))
	hi := lo + uintptr(len(a.buf))
	inside := func(p unsafe.Pointer, size int) bool {
		return size == 0 || uintptr(p) >= lo && uintptr(p)+uintptr(size) <= hi
	}
	for _, col := range [...][]int32{a.classIdx, a.labelIdx, a.priority, a.ready, a.numThr,
		a.depOff, a.depPred, a.fpOff, a.fpHandle, a.strOff} {
		if !inside(unsafe.Pointer(unsafe.SliceData(col)), 4*len(col)) {
			return false
		}
	}
	for _, col := range [...][]uint8{a.where, a.depKind, a.fpMode} {
		if !inside(unsafe.Pointer(unsafe.SliceData(col)), len(col)) {
			return false
		}
	}
	return inside(unsafe.Pointer(unsafe.SliceData(a.duration)), 8*len(a.duration)) &&
		inside(unsafe.Pointer(unsafe.StringData(a.strs)), len(a.strs))
}

// Decode parses a .dag frame into an Arena, copying out of b: the caller
// may reuse or discard b afterwards.
func Decode(b []byte) (*Arena, error) {
	clone := make([]byte, len(b))
	copy(clone, b)
	return Load(clone)
}

// Load parses a .dag frame and adopts b as the arena's backing storage
// and its Frame(): when the host is little-endian and b is 8-byte aligned,
// every column and the string table alias b directly — no per-task
// unmarshalling, no copies. The caller must not modify b after a
// successful Load. Misaligned input (or a big-endian host) falls back to a
// copying decode, which copies the string bytes in one piece; hostile
// input errors without panicking.
func Load(b []byte) (*Arena, error) {
	if len(b) < dagHeaderLen+dagCountsLen {
		return nil, fmt.Errorf("replay: decode: frame truncated (%d bytes)", len(b))
	}
	if string(b[0:4]) != dagMagic {
		return nil, fmt.Errorf("replay: decode: bad magic %q", b[0:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != dagVersion {
		return nil, fmt.Errorf("replay: decode: unsupported version %d (want %d)", v, dagVersion)
	}
	if flags := binary.LittleEndian.Uint16(b[6:8]); flags&dagFlagLE == 0 {
		return nil, fmt.Errorf("replay: decode: unsupported payload byte order (flags %#x)", flags)
	}
	payloadLen := binary.LittleEndian.Uint64(b[8:16])
	if payloadLen != uint64(len(b)-dagHeaderLen) {
		return nil, fmt.Errorf("replay: decode: frame declares %d payload bytes, has %d", payloadLen, len(b)-dagHeaderLen)
	}
	payload := b[dagHeaderLen:]
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(b[16:20]) {
		return nil, fmt.Errorf("replay: decode: payload CRC mismatch (frame corrupt)")
	}

	var counts [10]uint64
	for i := range counts {
		counts[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	n, e, f, s, sb := counts[0], counts[1], counts[2], counts[3], counts[4]
	workers, handles, labelIdx := counts[5], counts[6], counts[7]
	const maxC = math.MaxInt32
	if n == 0 {
		return nil, fmt.Errorf("replay: decode: empty DAG")
	}
	if n > maxC || e > maxC || f > maxC || s > maxC || sb > maxC || workers > maxC || handles > maxC {
		return nil, fmt.Errorf("replay: decode: counts out of range")
	}
	if want := payloadSize(n, e, f, s, sb); want != payloadLen || want > dagMaxEncoded {
		return nil, fmt.Errorf("replay: decode: frame declares %d payload bytes, layout needs %d", payloadLen, want)
	}
	if s == 0 || labelIdx >= s {
		return nil, fmt.Errorf("replay: decode: label string index %d outside table of %d", labelIdx, s)
	}

	a := &Arena{
		n:       int(n),
		workers: int(workers),
		handles: int(handles),
		buf:     b,
	}
	a.adopt(payload, e, f, s, sb, canAlias(b))

	// String offsets must tile [0, sb] monotonically.
	if a.strOff[0] != 0 || a.strOff[s] != int32(sb) {
		return nil, fmt.Errorf("replay: decode: string offsets do not tile the byte blob")
	}
	for i := uint64(0); i < s; i++ {
		if lo, hi := a.strOff[i], a.strOff[i+1]; lo > hi {
			return nil, fmt.Errorf("replay: decode: string %d has invalid bounds [%d,%d)", i, lo, hi)
		}
	}
	a.labelStr = int32(labelIdx)
	a.label = a.str(a.labelStr)
	a.replayLabel = a.label + "-replay"

	if err := a.validateColumns(); err != nil {
		return nil, err
	}

	a.deriveStatic() // recomputed, never trusted from the wire
	return a, nil
}

// canAlias reports whether a frame's columns can alias b in place: a
// little-endian host and an 8-aligned base, the float64 column's alignment.
func canAlias(b []byte) bool {
	return hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0
}

// adopt points the arena's columns and string table at a frame's payload,
// laid out for a.n tasks, e edges, f footprint entries and s strings of sb
// bytes: aliased in place when alias is set, copied out otherwise. Section
// offsets are 8-aligned for the float64 column and 4-aligned for the int32
// columns by construction (see the layout comment). The counts were
// checked against the payload length.
func (a *Arena) adopt(payload []byte, e, f, s, sb uint64, alias bool) {
	n := uint64(a.n)
	off := uint64(dagCountsLen)
	take := func(ln uint64) []byte {
		sec := payload[off : off+ln : off+ln]
		off += ln
		return sec
	}
	durB := take(8 * n)
	classB := take(4 * n)
	labelB := take(4 * n)
	prioB := take(4 * n)
	readyB := take(4 * n)
	thrB := take(4 * n)
	depOffB := take(4 * (n + 1))
	depPredB := take(4 * e)
	fpOffB := take(4 * (n + 1))
	fpHandleB := take(4 * f)
	strOffB := take(4 * (s + 1))
	a.where = take(n)
	a.depKind = take(e)
	a.fpMode = take(f)
	strBytes := take(sb)

	if alias {
		a.duration = aliasF64(durB, n)
		a.classIdx = aliasI32(classB, n)
		a.labelIdx = aliasI32(labelB, n)
		a.priority = aliasI32(prioB, n)
		a.ready = aliasI32(readyB, n)
		a.numThr = aliasI32(thrB, n)
		a.depOff = aliasI32(depOffB, n+1)
		a.depPred = aliasI32(depPredB, e)
		a.fpOff = aliasI32(fpOffB, n+1)
		a.fpHandle = aliasI32(fpHandleB, f)
		a.strOff = aliasI32(strOffB, s+1)
		a.strs = unsafe.String(unsafe.SliceData(strBytes), len(strBytes))
		return
	}
	a.duration = copyF64(durB, n)
	a.classIdx = copyI32(classB, n)
	a.labelIdx = copyI32(labelB, n)
	a.priority = copyI32(prioB, n)
	a.ready = copyI32(readyB, n)
	a.numThr = copyI32(thrB, n)
	a.depOff = copyI32(depOffB, n+1)
	a.depPred = copyI32(depPredB, e)
	a.fpOff = copyI32(fpOffB, n+1)
	a.fpHandle = copyI32(fpHandleB, f)
	a.strOff = copyI32(strOffB, s+1)
	a.where = slices.Clone(a.where)
	a.depKind = slices.Clone(a.depKind)
	a.fpMode = slices.Clone(a.fpMode)
	a.strs = string(strBytes)
}

// validateColumns enforces the executors' input contract on an arena's
// columns, wherever they came from — a capture, BuildArena, a frame:
// in-range string/handle indices, monotone CSR offsets, predecessors
// strictly before successors, replayable tasks. Everything here is checked
// before the arena is released to callers, so the hot loops can index
// without bounds anxiety.
func (a *Arena) validateColumns() error {
	n := a.n
	e, f, s := int32(len(a.depPred)), int32(len(a.fpHandle)), int32(a.NumStrings())
	if a.depOff[0] != 0 || a.depOff[n] != e || a.fpOff[0] != 0 || a.fpOff[n] != f {
		return fmt.Errorf("replay: CSR offsets do not tile their lists")
	}
	for i := 0; i < n; i++ {
		if a.classIdx[i] < 0 || a.classIdx[i] >= s || a.labelIdx[i] < 0 || a.labelIdx[i] >= s {
			return fmt.Errorf("replay: task %d string index out of range", i)
		}
		if a.numThr[i] > 1 {
			return fmt.Errorf("replay: task %d is a gang task (NumThreads=%d)", i, a.numThr[i])
		}
		if !sched.Where(a.where[i]).Allows(sched.KindCPU) {
			return fmt.Errorf("replay: task %d cannot run on CPU workers (Where=%#x)", i, a.where[i])
		}
		if a.depOff[i] > a.depOff[i+1] || a.fpOff[i] > a.fpOff[i+1] {
			return fmt.Errorf("replay: task %d has non-monotone CSR offsets", i)
		}
		for j := a.depOff[i]; j < a.depOff[i+1]; j++ {
			if p := a.depPred[j]; p < 0 || int(p) >= i {
				return fmt.Errorf("replay: task %d has invalid predecessor %d", i, p)
			}
			if hazard.EdgeKind(a.depKind[j]) > hazard.WaW {
				return fmt.Errorf("replay: task %d has unknown dependence kind %d", i, a.depKind[j])
			}
		}
		for j := a.fpOff[i]; j < a.fpOff[i+1]; j++ {
			if h := a.fpHandle[j]; h < 0 || int(h) >= a.handles {
				return fmt.Errorf("replay: task %d references handle %d outside [0,%d)", i, a.fpHandle[j], a.handles)
			}
		}
	}
	return nil
}

func aliasI32(b []byte, n uint64) []int32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
}

func aliasF64(b []byte, n uint64) []float64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
}

func copyI32(b []byte, n uint64) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func copyF64(b []byte, n uint64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
