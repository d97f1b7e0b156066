package trace

import (
	"math"
	"testing"
)

// byteLoopFingerprint is Trace.Fingerprint as it was written before Digest
// existed: FNV-1a one byte at a time, every integer as eight bytes, no
// folded multiplies. The reference the short forms in Digest.Event are held
// to.
func byteLoopFingerprint(t *Trace) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	mix(uint64(t.Workers))
	for _, e := range t.Events {
		mix(uint64(e.Worker))
		mixStr(e.Class)
		mixStr(e.Label)
		mix(uint64(e.TaskID))
		mix(math.Float64bits(e.Start))
		mix(math.Float64bits(e.End))
	}
	return h
}

// TestDigestEqualsByteLoop: the collapsed zero bytes are bit-exact FNV-1a at
// and around both range boundaries, and values outside the short ranges —
// negative ones included, whose high bytes are all 0xff — take the full
// word.
func TestDigestEqualsByteLoop(t *testing.T) {
	// int64 so the list compiles where int is 32 bits; truncated there, the
	// values still straddle both boundaries.
	workers := []int64{0, 1, 7, 255, 256, 257, 1023, 1 << 20, -1, math.MinInt64}
	ids := []int64{0, 1, 255, 256, 65535, 65536, 1<<24 - 1, 1 << 24, 1<<24 + 1, 1 << 40, -1, -(1 << 24)}
	tr := New("edges", 1<<24+3)
	for i, w := range workers {
		for j, id := range ids {
			tr.Append(Event{
				Worker: int(w), Class: []string{"", "K", "DGEMM"}[(i+j)%3], Label: []string{"", "g(1,2,3)"}[j%2],
				TaskID: int(id), Start: float64(i) * 0.1, End: math.Inf(1 - 2*(j%2)),
			})
		}
	}
	if got, want := tr.Fingerprint(), byteLoopFingerprint(tr); got != want {
		t.Fatalf("Fingerprint %#x, byte loop %#x", got, want)
	}
	// Event by event, so a pair of compensating errors cannot hide.
	for _, e := range tr.Events {
		one := &Trace{Workers: 3, Events: []Event{e}}
		if got, want := NewEventDigest(3).Event(e).Sum64(), byteLoopFingerprint(one); got != want {
			t.Errorf("event %+v: digest %#x, byte loop %#x", e, got, want)
		}
	}
	if got, want := sampleTrace().Fingerprint(), byteLoopFingerprint(sampleTrace()); got != want {
		t.Errorf("sample trace: Fingerprint %#x, byte loop %#x", got, want)
	}
}

func TestDigestHex(t *testing.T) {
	for v, want := range map[uint64]string{
		0:                  "0000000000000000",
		0xabc:              "0000000000000abc",
		0x95dd60dcfe869fba: "95dd60dcfe869fba",
		math.MaxUint64:     "ffffffffffffffff",
	} {
		if got := Digest(v).Hex(); got != want {
			t.Errorf("Digest(%#x).Hex() = %q, want %q", v, got, want)
		}
	}
}

// TestPerWorkerKeepsCompletionOrderAndSortsTheRest: a lane already in start
// order comes back as stored (equal starts included); a lane that is not is
// sorted without reordering equal starts; events outside the worker range
// are dropped; appending to one lane cannot reach its neighbour in the slab.
func TestPerWorkerKeepsCompletionOrderAndSortsTheRest(t *testing.T) {
	tr := New("t", 3)
	for _, e := range []Event{
		{Worker: 0, TaskID: 0, Start: 0, End: 0}, {Worker: 2, TaskID: 1, Start: 3, End: 4},
		{Worker: 0, TaskID: 2, Start: 0, End: 1}, {Worker: 2, TaskID: 3, Start: 1, End: 2},
		{Worker: 7, TaskID: 4}, {Worker: -1, TaskID: 5},
		{Worker: 2, TaskID: 6, Start: 1, End: 1}, {Worker: 0, TaskID: 7, Start: 1, End: 2},
	} {
		tr.Append(e)
	}
	lanes := tr.PerWorker()
	want := [][]int{{0, 2, 7}, {}, {3, 6, 1}}
	for w, lane := range lanes {
		if len(lane) != len(want[w]) {
			t.Fatalf("lane %d has %d events, want %d", w, len(lane), len(want[w]))
		}
		for i, e := range lane {
			if e.TaskID != want[w][i] {
				t.Errorf("lane %d[%d] is task %d, want %d", w, i, e.TaskID, want[w][i])
			}
		}
	}
	_ = append(lanes[0], Event{TaskID: 99})
	if lanes[2][0].TaskID != 3 {
		t.Error("appending to lane 0 overwrote lane 2's first event")
	}
}
