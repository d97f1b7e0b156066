package replay

import (
	"encoding/binary"
	"math"
	"testing"

	"supersim/internal/core"
)

// fuzzInputCap bounds fuzz inputs so a single case stays cheap; real
// frames at this size hold thousands of tasks, plenty to explore the
// validators.
const fuzzInputCap = 1 << 20

// FuzzDecode pins the codec's hostile-input contract: an arbitrary byte
// slice either decodes to a replayable arena or returns an error — it
// never panics, never allocates beyond the frame's own declared layout
// (every count is validated against the payload length before any sized
// allocation), and anything that does decode must replay and survive a
// re-encode round trip with an identical fingerprint. The seed corpus in
// testdata/fuzz/FuzzDecode plus the seeds below run on every plain
// `go test`, so `make check` exercises this without -fuzz.
func FuzzDecode(f *testing.F) {
	d := syntheticDAG(48, 3, 4, 9)
	a, err := BuildArena(d)
	if err != nil {
		f.Fatal(err)
	}
	enc := a.Encode()
	f.Add(append([]byte(nil), enc...))
	f.Add(append([]byte(nil), enc[:len(enc)/2]...))
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("SDAG"))
	f.Add([]byte{})

	var model core.DurationModel = core.FixedModel(1e-3)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > fuzzInputCap {
			t.Skip("oversized input")
		}
		got, err := Decode(b)
		if err != nil {
			if got != nil {
				t.Fatal("Decode returned both an arena and an error")
			}
			return
		}
		// A frame that validates must replay: the columns were checked
		// against the executors' full input contract.
		tr, err := RunArena(got, Options{Workers: 2, Model: model, Seed: 3})
		if err != nil {
			t.Fatalf("decoded arena does not replay: %v", err)
		}
		if len(tr.Events) != got.NumTasks() {
			t.Fatalf("replay of decoded arena ran %d events, want %d", len(tr.Events), got.NumTasks())
		}
		// And it must survive a re-encode round trip bit for bit.
		again, err := Decode(got.Encode())
		if err != nil {
			t.Fatalf("re-encoded arena does not decode: %v", err)
		}
		tr2, err := RunArena(again, Options{Workers: 2, Model: model, Seed: 3})
		if err != nil {
			t.Fatalf("re-decoded arena does not replay: %v", err)
		}
		if tr.Fingerprint() != tr2.Fingerprint() {
			t.Fatalf("re-encode round trip changed the fingerprint: %#x != %#x", tr2.Fingerprint(), tr.Fingerprint())
		}
	})
}

// FuzzLoadRun aims the fuzzer at the one column whose content shapes a
// derived structure: the input bytes become the priority column (four
// bytes a task) of a fixed random graph, framed with a valid CRC so Load
// always gets as far as deriving the ready-queue levels. Whatever the
// column holds, the level tables must partition it and the replay must
// match the naive oracle — with priorities and without — as a trace and as
// the digest of the trace-free run.
func FuzzLoadRun(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0xff}) // MinInt32, MaxInt32, -1
	// 300 distinct values spread over int32: sort derivation, two bitmap layers.
	wide := make([]byte, 4*300)
	for i := 0; i < 300; i++ {
		binary.LittleEndian.PutUint32(wide[4*i:], uint32(i)*2654435761)
	}
	f.Add(wide)

	var model core.DurationModel = jitterModel{base: 1e-3}
	f.Fuzz(func(t *testing.T, b []byte) {
		n := min(len(b)/4, 4096)
		d := syntheticDAG(max(n, 1), 3, 4, 9)
		for i := 0; i < n; i++ {
			d.Tasks[i].Priority = int(int32(binary.LittleEndian.Uint32(b[4*i:])))
		}
		built, err := BuildArena(d)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Load(built.Encode())
		if err != nil {
			t.Fatalf("Load rejects an encoded arena: %v", err)
		}
		checkLevels(t, a)
		for _, fifo := range []bool{false, true} {
			opt := Options{Workers: 3, Model: model, Seed: 3, IgnorePriorities: fifo}
			tr, err := RunArena(a, opt)
			if err != nil {
				t.Fatalf("loaded arena does not replay: %v", err)
			}
			if got, want := tr.Fingerprint(), oracleRun(d, opt).Fingerprint(); got != want {
				t.Fatalf("fifo=%v: fingerprint %#x, oracle %#x", fifo, got, want)
			}
			ms, fp, err := Digest(a, opt)
			if err != nil {
				t.Fatalf("loaded arena does not digest: %v", err)
			}
			if fp != tr.Fingerprint() || math.Float64bits(ms) != math.Float64bits(tr.Makespan()) {
				t.Fatalf("fifo=%v: Digest = (%v, %#x), its trace has (%v, %#x)", fifo, ms, fp, tr.Makespan(), tr.Fingerprint())
			}
		}
	})
}
