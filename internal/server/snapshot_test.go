package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"supersim/internal/bench"
	"supersim/internal/core"
)

// fullStoreState is a store at its retention bound on the serve-sweep
// request shape: 256 finished sweep jobs, each holding the whole curve.
func fullStoreState(t *testing.T) storeState {
	t.Helper()
	points, _, err := bench.SweepParallel("quark", "cholesky", 32, 16, 8, bench.SweepOptions{Reps: 8, Model: core.FixedModel(1e-3), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := storeState{NextID: DefaultRetainJobs + 1}
	for i := 1; i <= DefaultRetainJobs; i++ {
		st.Jobs = append(st.Jobs, JobRecord{
			ID:         fmt.Sprintf("j-%06d", i),
			Tenant:     "default",
			Spec:       &JobSpec{Kind: "sweep", Algorithm: "cholesky", Scheduler: "quark", MaxNT: 16, NB: 32, Reps: 8, Workers: 8, Seed: uint64(i)},
			JobOutcome: JobOutcome{Status: StatusDone, Cache: "bypass", Attempts: 1, Result: SweepResult(points)},
		})
	}
	return st
}

// TestStoreStateEncodesAsMarshal: a compaction writes the store's state
// one record at a time (storeState.EncodeState), and what it writes must
// be json.Marshal's encoding of the state once the encoder's newlines are
// dropped (a JSON encoding holds no raw newline but those), for every
// optional section present or absent and for strings the encoder escapes;
// compacted through a journal, the state must reopen as the same records.
func TestStoreStateEncodesAsMarshal(t *testing.T) {
	full := fullStoreState(t)
	odd := storeState{NextID: 3, NextCron: 2,
		Jobs:  []JobRecord{{ID: "j-000001", Source: "cron:c-000001", JobOutcome: JobOutcome{Status: StatusFailed, Error: "a <b> & \"c\"\n "}}, {ID: "j-000002"}},
		Crons: []CronSpec{{ID: "c-000001", Name: "nightly <ops>", EveryMS: 60_000, Spec: JobSpec{Algorithm: "qr", NT: 4, NB: 8}}},
	}
	for name, s := range map[string]storeState{"empty": {}, "ids only": {NextID: 9}, "odd": odd, "full": full} {
		var buf bytes.Buffer
		if err := s.EncodeState(&buf); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.ReplaceAll(buf.Bytes(), []byte("\n"), nil); !bytes.Equal(got, want) {
			t.Errorf("%s: EncodeState wrote\n%.600s\nwant\n%.600s", name, got, want)
		}
	}

	dir := t.TempDir()
	st, err := OpenStore(dir, "j-", DefaultCompactEvery, DefaultRetainJobs)
	if err != nil {
		t.Fatal(err)
	}
	st.state = odd
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenStore(dir, "j-", DefaultCompactEvery, DefaultRetainJobs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, _ := json.Marshal(st.state)
	want, _ := json.Marshal(odd)
	if !bytes.Equal(got, want) {
		t.Errorf("reopened state\n%s\nwant\n%s", got, want)
	}
}

// TestCompactionAllocatesNoCopyOfState: compacting a full store streams
// its records into the snapshot file, so what a compaction allocates is
// the record slice's copy and the write buffer, not the encoding. The
// ceiling is a tenth of the encoding's size; this 1.26 MB state measures
// 77 KB. History: marshalling the state and then the snapshot around it
// allocated about twice the encoding (2.6 MB here), and whether the
// benchmark's fixed-op cluster-sweep window held its three stores'
// compactions or the time-boxed warm-up did moved alloc_kb_per_op by
// about 20 KB.
func TestCompactionAllocatesNoCopyOfState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	dir := t.TempDir()
	st, err := OpenStore(dir, "j-", DefaultCompactEvery, DefaultRetainJobs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.state = fullStoreState(t)
	encoded, err := json.Marshal(st.state)
	if err != nil {
		t.Fatal(err)
	}
	compact := func() {
		st.io.Lock()
		defer st.io.Unlock()
		if err := st.compact(); err != nil {
			t.Fatal(err)
		}
	}
	compact() // the first one creates the snapshot file
	least := uint64(1) << 62
	for r := 0; r < 3; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		compact()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if ceiling := uint64(len(encoded)) / 10; least > ceiling {
		t.Errorf("a compaction of a %d-byte state allocates %d B, ceiling %d B", len(encoded), least, ceiling)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "snapshot.json")); err != nil || len(raw) < len(encoded) {
		t.Errorf("snapshot of %d bytes (%v), state encodes to %d", len(raw), err, len(encoded))
	}
	t.Logf("a compaction of a %d-byte state allocates %d B", len(encoded), least)
}
