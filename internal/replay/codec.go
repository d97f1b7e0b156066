// The .dag binary codec: a versioned, CRC-framed encoding of an Arena
// that a reader can adopt without per-task unmarshalling.
//
// Layout (all integers little-endian):
//
//	header — 32 bytes
//	  [0:4)   magic "SDAG"
//	  [4:6)   format version (currently 3)
//	  [6:8)   flags (bit 0: payload is little-endian; always set)
//	  [8:16)  payload length
//	  [16:20) CRC-32 (IEEE) of the payload
//	  [20:32) reserved (zero)
//	payload — counts block, then the columns
//	  counts: 10 uint64 — tasks n, edges E, footprints F, strings S,
//	          string bytes B, workers, handles, label string index,
//	          two reserved
//	  classIdx   n × int32     (offset 80 from payload start)
//	  labelIdx   n × int32
//	  priority   n × int32
//	  depOff     (n+1) × int32
//	  depPred    E × int32
//	  fpOff      (n+1) × int32
//	  fpHandle   F × int32
//	  strOff     (S+1) × int32
//	  depKind    E × uint8  (hazard.EdgeKind: 0 none, 1 RaW, 2 WaR, 3 WaW)
//	  fpMode     F × uint8
//	  strBytes   B bytes
//
// A frame holds the graph and nothing a replay does not read: each task's
// class, label and priority, its footprint and its resolved dependences.
// Durations are not part of it: every replay samples them from its model.
// Version 2 frames also carried a float64 duration per task, and version 1
// frames a capture ready order, a thread count and a placement mask per
// task; Load refuses both, and the capture cache treats the refusal as any
// unreadable frame (drop, then recapture).
//
// A builder (arena.go) writes this layout in place as it captures a graph,
// so a built arena already lives in its frame; Encode only copies it.
//
// The section order — the 4-byte columns first, at payload offset 80
// (frame offset 112), then the byte columns — keeps every column
// naturally aligned relative to the frame start: the int32 columns need
// a 4-aligned frame, the byte columns and the string bytes none. So Load
// can alias a 4-aligned byte slice in place (unsafe.Slice over the
// column regions, unsafe.String over the string bytes — the arena keeps
// its string table in this same form) and fall back to a copying decode
// otherwise. Derived state (successor CSR, ready-queue levels) is never
// encoded; Load recomputes it, which both keeps frames smaller and
// guarantees the derived views are consistent with the columns whatever
// the bytes claim.
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
)

const (
	dagMagic   = "SDAG"
	dagVersion = 3
	// dagFlagLE marks a little-endian payload. seal always sets it;
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

// dims are the sizes a frame's sections are laid out for: n tasks, e
// dependence edges, f footprint entries and s strings of b bytes. A
// frame's counts are its dims; a builder's buffer is laid out for the
// dims it has room for (arena.go).
type dims struct{ n, e, f, s, b uint64 }

// dims returns the arena's counts.
func (a *Arena) dims() dims {
	return dims{uint64(a.n), uint64(len(a.depPred)), uint64(len(a.fpHandle)), uint64(a.NumStrings()), uint64(len(a.strs))}
}

// The sections of a payload, in frame order.
const (
	secClass = iota
	secLabel
	secPriority
	secDepOff
	secDepPred
	secFpOff
	secFpHandle
	secStrOff
	secDepKind
	secFpMode
	secStrs
	numSections
)

// sizes returns the byte length of each section, in frame order.
//
//simlint:hotpath
func (d dims) sizes() [numSections]uint64 {
	return [numSections]uint64{
		4 * d.n, 4 * d.n, 4 * d.n,
		4 * (d.n + 1), 4 * d.e, 4 * (d.n + 1), 4 * d.f, 4 * (d.s + 1),
		d.e, d.f, d.b,
	}
}

// payloadSize returns the payload length of a frame laid out for d.
//
//simlint:hotpath
func (d dims) payloadSize() uint64 {
	size := uint64(dagCountsLen)
	for _, ln := range d.sizes() {
		size += ln
	}
	return size
}

// sections cuts a payload laid out for d into its sections, each with
// its own length as capacity.
//
//simlint:hotpath
func (d dims) sections(payload []byte) (secs [numSections][]byte) {
	off := uint64(dagCountsLen)
	for i, ln := range d.sizes() {
		secs[i] = payload[off : off+ln : off+ln]
		off += ln
	}
	return secs
}

// seal writes the frame's counts, header and CRC around the finished
// columns: the last step of a build (builder.finish), once the columns
// are validated. On a host whose integers are big-endian the
// columns were written in host order; the frame's copy is turned
// little-endian and the arena takes copies of its own, as Load does there.
func (a *Arena) seal() {
	buf, d := a.buf, a.dims()
	payload := buf[dagHeaderLen:]
	for i, c := range [...]uint64{d.n, d.e, d.f, d.s, d.b, uint64(a.workers), uint64(a.handles), uint64(a.labelStr)} {
		binary.LittleEndian.PutUint64(payload[8*i:], c)
	}
	if !hostLittleEndian {
		secs := d.sections(payload)
		for i := secClass; i <= secStrOff; i++ {
			for j := 0; j < len(secs[i]); j += 4 {
				slices.Reverse(secs[i][j : j+4])
			}
		}
		a.adopt(payload, d, false)
	}
	copy(buf[0:4], dagMagic)
	binary.LittleEndian.PutUint16(buf[4:6], dagVersion)
	binary.LittleEndian.PutUint16(buf[6:8], dagFlagLE)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(payload))
}

// Encode returns a copy of the arena's .dag frame (Frame), which the
// caller may modify.
func (a *Arena) Encode() []byte { return slices.Clone(a.buf) }

// Frame returns the .dag frame the arena lives in: the one its builder
// wrote (a Pass, BuildArena) or Load's input. The bytes are
// shared: do not modify them.
func (a *Arena) Frame() []byte { return a.buf }

// AliasesFrame reports whether every column and the string bytes lie
// inside Frame(), so the arena holds nothing of its own beyond the derived
// views: true on a little-endian host for every built arena and after a
// Load of an 8-aligned frame.
func (a *Arena) AliasesFrame() bool {
	if len(a.buf) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(a.buf)))
	hi := lo + uintptr(len(a.buf))
	inside := func(p unsafe.Pointer, size int) bool {
		return size == 0 || uintptr(p) >= lo && uintptr(p)+uintptr(size) <= hi
	}
	for _, col := range [...][]int32{a.classIdx, a.labelIdx, a.priority,
		a.depOff, a.depPred, a.fpOff, a.fpHandle, a.strOff} {
		if !inside(unsafe.Pointer(unsafe.SliceData(col)), 4*len(col)) {
			return false
		}
	}
	for _, col := range [...][]uint8{a.depKind, a.fpMode} {
		if !inside(unsafe.Pointer(unsafe.SliceData(col)), len(col)) {
			return false
		}
	}
	return inside(unsafe.Pointer(unsafe.StringData(a.strs)), len(a.strs))
}

// Decode parses a .dag frame into an Arena, copying out of b: the caller
// may reuse or discard b afterwards.
func Decode(b []byte) (*Arena, error) {
	clone := make([]byte, len(b))
	copy(clone, b)
	return Load(clone)
}

// Load parses a .dag frame and adopts b as the arena's backing storage
// and its Frame(): when the host is little-endian and b is 4-byte aligned,
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
	d := dims{n, e, f, s, sb}
	if want := d.payloadSize(); want != payloadLen || want > dagMaxEncoded {
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
	a.adopt(payload, d, canAlias(b))

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

	a.deriveStatic(nil) // recomputed, never trusted from the wire
	return a, nil
}

// canAlias reports whether a frame's columns can alias b in place: a
// little-endian host and a 4-aligned base, the int32 columns' alignment.
func canAlias(b []byte) bool {
	return hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 == 0
}

// adopt points the arena's columns and string table at a frame's payload
// laid out for d: aliased in place when alias is set, copied out
// otherwise. Section offsets are 4-aligned for the int32 columns by
// construction (see the layout comment). The counts were checked against
// the payload length.
func (a *Arena) adopt(payload []byte, d dims, alias bool) {
	s := d.sections(payload)
	a.depKind, a.fpMode = s[secDepKind], s[secFpMode]
	if alias {
		a.classIdx = aliasI32(s[secClass])
		a.labelIdx = aliasI32(s[secLabel])
		a.priority = aliasI32(s[secPriority])
		a.depOff = aliasI32(s[secDepOff])
		a.depPred = aliasI32(s[secDepPred])
		a.fpOff = aliasI32(s[secFpOff])
		a.fpHandle = aliasI32(s[secFpHandle])
		a.strOff = aliasI32(s[secStrOff])
		a.strs = unsafe.String(unsafe.SliceData(s[secStrs]), len(s[secStrs]))
		return
	}
	a.classIdx = copyI32(s[secClass])
	a.labelIdx = copyI32(s[secLabel])
	a.priority = copyI32(s[secPriority])
	a.depOff = copyI32(s[secDepOff])
	a.depPred = copyI32(s[secDepPred])
	a.fpOff = copyI32(s[secFpOff])
	a.fpHandle = copyI32(s[secFpHandle])
	a.strOff = copyI32(s[secStrOff])
	a.depKind = slices.Clone(a.depKind)
	a.fpMode = slices.Clone(a.fpMode)
	a.strs = string(s[secStrs])
}

// validateColumns enforces the executors' input contract on an arena's
// columns, wherever they came from — a capture, BuildArena, a frame:
// in-range string/handle indices, monotone CSR offsets, predecessors
// strictly before successors, known dependence kinds. Everything here is checked
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

func aliasI32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func copyI32(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
