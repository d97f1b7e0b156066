package replay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"supersim/internal/core"
	"supersim/internal/hazard"
	"supersim/internal/sched"
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

// FuzzBuilderFrameMatchesReference pins the frame a builder writes in
// place against the column-at-a-time encoder it replaced
// (referenceEncode). The input bytes become a stream of rows — classes
// and labels that repeat, distinct labels added without a lookup,
// priorities over several levels, footprints and dependences of every
// kind — and announce picks what the builder is told
// beforehand: the exact sizes, fewer than the stream resolves (its
// sections regrow), more (finish moves them down), or nothing, as for the
// facade's capture runtime. The arena must hold the rows, its frame must
// equal the reference
// encoding of its columns, Load must round-trip the frame, and BuildArena
// of the arena's view must write the same bytes.
func FuzzBuilderFrameMatchesReference(f *testing.F) {
	rows := []byte{0, 1, 2, 2, 0, 1, 3, 7, 1, 2, 0, 5, 4, 3, 9, 1, 1, 2, 6, 2, 3, 3, 8, 0, 0, 7, 1, 2, 3, 4}
	for announce := uint8(0); announce < 4; announce++ {
		f.Add(announce, rows)
		f.Add(announce, rows[1:])
	}
	f.Add(uint8(3), bytes.Repeat([]byte{3, 1, 2, 3, 3, 1, 2, 0, 3, 2}, 60))
	f.Add(uint8(1), []byte{})

	classes := []string{"POTRF", "TRSM", "SYRK", "GEMM", "TRSM", ""}
	f.Fuzz(func(t *testing.T, announce uint8, in []byte) {
		if len(in) > 1<<12 {
			t.Skip("oversized input")
		}
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			v := in[0]
			in = in[1:]
			return int(v)
		}
		var want []Task
		handles, edges, feet, strBytes := 0, 0, 0, len("fuzz")
		seen := map[string]bool{"fuzz": true}
		for len(want) == 0 || len(in) > 0 {
			i := len(want)
			tk := Task{ID: i, Class: classes[next()%len(classes)], Priority: next()%5 - 2}
			if l := next(); l < 128 {
				tk.Label = fmt.Sprint("t", l%8) // repeats
			} else {
				tk.Label = fmt.Sprint("task-", i)
			}
			for range next() % 4 {
				h := next() % 6
				tk.Footprint = append(tk.Footprint, Footprint{Handle: h, Mode: hazard.Access(1 + next()%3)})
				handles = max(handles, h+1)
			}
			if i > 0 {
				for range next() % 4 {
					tk.Deps = append(tk.Deps, sched.Dep{Pred: next() % i, Kind: hazard.EdgeKind(next() % 4)})
				}
			}
			for _, str := range []string{tk.Class, tk.Label} {
				if !seen[str] {
					seen[str] = true
					strBytes += len(str)
				}
			}
			edges += len(tk.Deps)
			feet += len(tk.Footprint)
			want = append(want, tk)
		}
		var b *builder
		switch n := len(want); announce % 4 {
		case 0: // exact
			b = newBuilder(n, feet, edges, strBytes, n+internSlack)
		case 1: // the stream resolves more than announced
			b = newBuilder(n/2, feet/2, edges/2, strBytes/2, n/2)
		case 2: // fewer
			b = newBuilder(2*n+1, feet+7, 2*edges+3, strBytes+11, 2*n+1+internSlack)
		case 3: // nothing announced, as the facade capture (replay.Capture) builds
			b = newBuilder(0, 0, 0, 0, 0)
		}
		for _, tk := range want {
			// A "task-" label is distinct, as a tile algorithm's are
			// (Pass.KeyRow): it is added without a lookup, between
			// interned classes and repeating labels.
			if err := b.task(tk.Class, tk.Label, tk.Priority, strings.HasPrefix(tk.Label, "task-")); err != nil {
				t.Fatal(err)
			}
			for _, fp := range tk.Footprint {
				b.footprint(int32(fp.Handle), fp.Mode)
			}
			for _, d := range tk.Deps {
				b.dep(d)
			}
		}
		a, err := b.finish("fuzz", 3, handles)
		if err != nil {
			t.Fatal(err)
		}
		got := a.DAG()
		if !reflect.DeepEqual(got.Tasks, want) {
			t.Fatalf("the arena does not hold the rows:\n got %+v\nwant %+v", got.Tasks, want)
		}
		frame := a.Frame()
		if !bytes.Equal(frame, referenceEncode(a)) {
			t.Fatal("the builder's frame differs from the reference encoding of its columns")
		}
		if hostLittleEndian && !a.AliasesFrame() {
			t.Fatal("the built arena's columns do not lie inside its frame")
		}
		loaded, err := Load(a.Encode())
		if err != nil {
			t.Fatalf("Load rejects the built frame: %v", err)
		}
		if !bytes.Equal(loaded.Frame(), frame) || !reflect.DeepEqual(loaded.DAG().Tasks, got.Tasks) {
			t.Fatal("Load does not round-trip the built frame")
		}
		rebuilt, err := BuildArena(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rebuilt.Frame(), frame) {
			t.Fatal("BuildArena of the arena's view writes another frame")
		}
	})
}
