package replay

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
	"unsafe"

	"supersim/internal/core"
)

// codecDAGs returns the two DAG shapes the codec tests run through: a real
// capture (footprints, hazard kinds, priorities) and a synthetic
// graph (no footprints, kindless duplicate edges).
func codecDAGs(t *testing.T) map[string]*DAG {
	t.Helper()
	captured, _ := captureRun(t, core.FixedModel(1e-3), 3)
	return map[string]*DAG{
		"captured":  captured,
		"synthetic": syntheticDAG(64, 3, 4, 7),
	}
}

// at copies src to an address that is skew bytes past an 8-byte
// boundary: 0 and 4 meet the 4-byte alignment of Load's zero-copy path,
// an odd skew forces its copying fallback.
func at(skew int, src []byte) []byte {
	raw := make([]byte, len(src)+8+skew)
	off := (8-int(uintptr(unsafe.Pointer(&raw[0]))%8))%8 + skew
	dst := raw[off : off+len(src) : off+len(src)]
	copy(dst, src)
	return dst
}

func TestCodecRoundTrip(t *testing.T) {
	models := []struct {
		name  string
		model core.DurationModel
	}{
		{"fixed", core.FixedModel(1e-3)},
		{"stochastic", jitterModel{base: 1e-3}},
	}
	for name, dag := range codecDAGs(t) {
		a, err := dag.Arena()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc := a.Encode()
		if !bytes.Equal(enc, referenceEncode(a)) {
			t.Fatalf("%s: the built frame differs from the reference encoding of its columns", name)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if dec.NumTasks() != a.NumTasks() || dec.NumEdges() != a.NumEdges() ||
			dec.NumFootprints() != a.NumFootprints() || dec.Workers() != a.Workers() ||
			dec.Handles() != a.Handles() || dec.Label() != a.Label() {
			t.Fatalf("%s: decoded arena shape differs: %d/%d/%d/%d/%d/%q vs %d/%d/%d/%d/%d/%q",
				name, dec.NumTasks(), dec.NumEdges(), dec.NumFootprints(), dec.Workers(), dec.Handles(), dec.Label(),
				a.NumTasks(), a.NumEdges(), a.NumFootprints(), a.Workers(), a.Handles(), a.Label())
		}
		// Structured reconstruction: the decoded arena's DAG must equal the
		// original field for field (the codec is lossless on columns).
		recon := dec.DAG()
		if recon.Label != dag.Label || recon.Workers != dag.Workers || recon.Handles != dag.Handles {
			t.Fatalf("%s: reconstructed DAG header differs", name)
		}
		if !reflect.DeepEqual(recon.Tasks, dag.Tasks) {
			t.Fatalf("%s: reconstructed tasks differ from the capture", name)
		}
		for _, m := range models {
			for _, parallelism := range []int{0, 2} {
				opt := Options{Workers: 3, Model: m.model, Seed: 17, Parallelism: parallelism}
				want, err := RunArena(a, opt)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, m.name, err)
				}
				got, err := RunArena(dec, opt)
				if err != nil {
					t.Fatalf("%s/%s: decoded run: %v", name, m.name, err)
				}
				if got.Fingerprint() != want.Fingerprint() {
					t.Errorf("%s/%s p=%d: decoded fingerprint %#x != original %#x",
						name, m.name, parallelism, got.Fingerprint(), want.Fingerprint())
				}
			}
		}
	}
}

// TestLoadZeroCopy pins the adoption contract: a 4-aligned frame on a
// little-endian host is aliased in place (no per-task unmarshalling), a
// misaligned frame falls back to the copying decode, all keep their input
// as the arena's Frame(), and all replay to the same bits as the original
// arena.
func TestLoadZeroCopy(t *testing.T) {
	dag, _ := captureRun(t, core.FixedModel(1e-3), 5)
	a, err := dag.Arena()
	if err != nil {
		t.Fatal(err)
	}
	enc := a.Encode()
	opt := Options{Workers: 2, Model: core.FixedModel(1e-3), Seed: 1}
	want, err := RunArena(a, opt)
	if err != nil {
		t.Fatal(err)
	}

	loaded := make(map[string]*Arena)
	for _, c := range []struct {
		name string
		skew int
	}{{"aligned", 0}, {"4-aligned", 4}, {"misaligned", 1}} {
		input := at(c.skew, enc)
		la, err := Load(input)
		if err != nil {
			t.Fatalf("%s Load: %v", c.name, err)
		}
		if aliasable := c.skew%4 == 0 && hostLittleEndian; la.AliasesFrame() != aliasable {
			t.Errorf("%s Load aliases the frame: %v, want %v", c.name, la.AliasesFrame(), aliasable)
		}
		if la.AliasesFrame() && &la.classIdx[0] != (*int32)(unsafe.Pointer(&input[dagHeaderLen+dagCountsLen])) {
			t.Errorf("%s Load did not point the class column into the frame", c.name)
		}
		if got := la.Frame(); len(got) != len(input) || &got[0] != &input[0] {
			t.Errorf("%s Load does not keep its input as the frame", c.name)
		}
		loaded[c.name] = la
	}

	// The built arena lives in its own frame the way an aligned Load
	// aliases one.
	if hostLittleEndian && !a.AliasesFrame() {
		t.Error("the built arena's columns do not lie inside its frame")
	}
	if !bytes.Equal(a.Frame(), enc) || &a.Frame()[0] == &enc[0] {
		t.Error("Encode is not a copy of the built arena's frame")
	}

	for label, arena := range loaded {
		tr, err := RunArena(arena, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if tr.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s Load fingerprint %#x != original %#x", label, tr.Fingerprint(), want.Fingerprint())
		}
	}
}

// TestDecodeDoesNotRetainInput: Decode must copy, so scribbling over the
// input afterwards cannot corrupt the arena.
func TestDecodeDoesNotRetainInput(t *testing.T) {
	dag, _ := captureRun(t, core.FixedModel(1e-3), 9)
	a, err := dag.Arena()
	if err != nil {
		t.Fatal(err)
	}
	enc := a.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Workers: 2, Model: jitterModel{base: 1e-3}, Seed: 4}
	before, err := RunArena(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xA5
	}
	after, err := RunArena(dec, opt)
	if err != nil {
		t.Fatalf("decoded arena broke when the input was overwritten: %v", err)
	}
	if before.Fingerprint() != after.Fingerprint() {
		t.Error("Decode aliased its input: fingerprint changed when the frame was overwritten")
	}
}

// referenceEncode serializes the arena's columns one value at a time into
// a fresh frame, following the layout comment in codec.go without the
// builder's section arithmetic: the oracle for the frames builders write
// in place.
func referenceEncode(a *Arena) []byte {
	n, e, f, s, sb := len(a.classIdx), len(a.depPred), len(a.fpHandle), len(a.strOff)-1, len(a.strs)
	size := dagHeaderLen + dagCountsLen + 4*(3*n+2*(n+1)+e+f+s+1) + e + f + sb
	buf := make([]byte, size)
	copy(buf[0:4], dagMagic)
	binary.LittleEndian.PutUint16(buf[4:6], dagVersion)
	binary.LittleEndian.PutUint16(buf[6:8], dagFlagLE)
	payload := buf[dagHeaderLen:]
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(payload)))

	counts := [10]uint64{
		uint64(n), uint64(e), uint64(f), uint64(s), uint64(sb),
		uint64(a.workers), uint64(a.handles), uint64(a.labelStr),
	}
	off := 0
	for _, c := range counts {
		binary.LittleEndian.PutUint64(payload[off:], c)
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
	putI32(a.depOff)
	putI32(a.depPred)
	putI32(a.fpOff)
	putI32(a.fpHandle)
	putI32(a.strOff)
	off += copy(payload[off:], a.depKind)
	off += copy(payload[off:], a.fpMode)
	copy(payload[off:], a.strs)
	binary.LittleEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(payload))
	return buf
}

// frameLayout computes payload-relative section offsets for a frame with
// the given counts, mirroring the layout in codec.go — the corruption
// tests use it to hit specific columns.
type frameLayout struct {
	depOff, depPred, fpHandle, strOff, depKind int
}

func layoutOf(a *Arena) frameLayout {
	n, e, f := a.n, len(a.depPred), len(a.fpHandle)
	var l frameLayout
	class := dagCountsLen
	label := class + 4*n
	prio := label + 4*n
	l.depOff = prio + 4*n
	l.depPred = l.depOff + 4*(n+1)
	fpOff := l.depPred + 4*e
	l.fpHandle = fpOff + 4*(n+1)
	l.strOff = l.fpHandle + 4*f
	l.depKind = l.strOff + 4*(a.NumStrings()+1)
	return l
}

// corrupt clones the frame, applies mutate to its payload, and refreshes
// the CRC so the corruption reaches the semantic validators rather than
// the checksum.
func corrupt(enc []byte, mutate func(payload []byte)) []byte {
	b := append([]byte(nil), enc...)
	p := b[dagHeaderLen:]
	mutate(p)
	binary.LittleEndian.PutUint32(b[16:20], crc32.ChecksumIEEE(p))
	return b
}

// TestDecodeRejectsHostileFrames drives every validator in Load: framing,
// checksum, counts, and per-column contract violations must all error —
// never panic, never return an arena the executors would index out of
// bounds on.
func TestDecodeRejectsHostileFrames(t *testing.T) {
	dag, _ := captureRun(t, core.FixedModel(1e-3), 2)
	a, err := dag.Arena()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.depPred) == 0 || len(a.fpHandle) == 0 || a.NumStrings() < 2 {
		t.Fatal("capture too degenerate to exercise the column validators")
	}
	enc := a.Encode()
	l := layoutOf(a)

	// Every truncation must error.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("Decode accepted a frame truncated to %d of %d bytes", cut, len(enc))
		}
	}

	cases := []struct {
		name  string
		frame []byte
	}{
		{"bad magic", func() []byte {
			b := append([]byte(nil), enc...)
			b[0] ^= 0xFF
			return b
		}()},
		{"future version", func() []byte {
			b := append([]byte(nil), enc...)
			binary.LittleEndian.PutUint16(b[4:6], dagVersion+1)
			return b
		}()},
		{"previous version", func() []byte {
			b := append([]byte(nil), enc...)
			binary.LittleEndian.PutUint16(b[4:6], dagVersion-1)
			return b
		}()},
		{"big-endian flag", func() []byte {
			b := append([]byte(nil), enc...)
			binary.LittleEndian.PutUint16(b[6:8], 0)
			return b
		}()},
		{"payload length lies", func() []byte {
			b := append([]byte(nil), enc...)
			binary.LittleEndian.PutUint64(b[8:16], uint64(len(enc)-dagHeaderLen+1))
			return b
		}()},
		{"trailing garbage", append(append([]byte(nil), enc...), 0)},
		{"flipped CRC", func() []byte {
			b := append([]byte(nil), enc...)
			b[16] ^= 1
			return b
		}()},
		{"flipped payload byte", func() []byte {
			b := append([]byte(nil), enc...)
			b[len(b)-1] ^= 1
			return b
		}()},
		{"zero tasks", corrupt(enc, func(p []byte) {
			binary.LittleEndian.PutUint64(p[0:8], 0)
		})},
		{"absurd task count", corrupt(enc, func(p []byte) {
			binary.LittleEndian.PutUint64(p[0:8], 1<<35)
		})},
		{"absurd edge count", corrupt(enc, func(p []byte) {
			binary.LittleEndian.PutUint64(p[8:16], 1<<34)
		})},
		{"label index out of table", corrupt(enc, func(p []byte) {
			binary.LittleEndian.PutUint64(p[56:64], uint64(a.NumStrings()))
		})},
		{"non-monotone dep offsets", corrupt(enc, func(p []byte) {
			binary.LittleEndian.PutUint32(p[l.depOff+4:], ^uint32(0))
		})},
		{"predecessor after successor", corrupt(enc, func(p []byte) {
			binary.LittleEndian.PutUint32(p[l.depPred:], uint32(int32(a.n)))
		})},
		{"unknown dependence kind", corrupt(enc, func(p []byte) {
			p[l.depKind] = 9
		})},
		{"footprint handle out of range", corrupt(enc, func(p []byte) {
			binary.LittleEndian.PutUint32(p[l.fpHandle:], uint32(int32(a.handles)))
		})},
		{"string offsets do not tile", corrupt(enc, func(p []byte) {
			binary.LittleEndian.PutUint32(p[l.strOff:], 1)
		})},
		{"string bounds inverted", corrupt(enc, func(p []byte) {
			binary.LittleEndian.PutUint32(p[l.strOff+4:], ^uint32(4))
		})},
	}
	for _, tc := range cases {
		if got, err := Decode(tc.frame); err == nil {
			t.Errorf("%s: Decode accepted the frame (arena %d tasks)", tc.name, got.NumTasks())
		} else if got != nil {
			t.Errorf("%s: Decode returned both an arena and an error", tc.name)
		}
	}
}
