package journal

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

type payload struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

func mustOpen(t *testing.T, dir string) (*Journal, Recovered) {
	t.Helper()
	j, rec, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return j, rec
}

// TestAppendReopenRoundTrip appends a mix of synced and unsynced records,
// closes cleanly, and checks that reopen returns them in order with
// monotonically increasing sequence numbers.
func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := mustOpen(t, dir)
	if rec.State != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh journal recovered %d records, state=%q", len(rec.Records), rec.State)
	}
	for i := 0; i < 10; i++ {
		var err error
		if i%2 == 0 {
			_, err = j.AppendSync("even", payload{N: i})
		} else {
			_, err = j.Append("odd", payload{N: i})
		}
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := j.LogRecords(); got != 10 {
		t.Fatalf("LogRecords=%d, want 10", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec := mustOpen(t, dir)
	defer j2.Close()
	if len(rec.Records) != 10 {
		t.Fatalf("recovered %d records, want 10", len(rec.Records))
	}
	var lastSeq uint64
	for i, r := range rec.Records {
		if r.Seq <= lastSeq {
			t.Fatalf("record %d seq %d not increasing (prev %d)", i, r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		var p payload
		if err := json.Unmarshal(r.Data, &p); err != nil {
			t.Fatalf("record %d payload: %v", i, err)
		}
		if p.N != i {
			t.Fatalf("record %d payload N=%d", i, p.N)
		}
		want := "even"
		if i%2 == 1 {
			want = "odd"
		}
		if r.Type != want {
			t.Fatalf("record %d type %q, want %q", i, r.Type, want)
		}
	}
	// New appends continue the sequence.
	r, err := j2.AppendSync("more", payload{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != lastSeq+1 {
		t.Fatalf("post-reopen seq %d, want %d", r.Seq, lastSeq+1)
	}
}

// TestTornTailTruncated simulates a SIGKILL landing mid-write: a partial
// final line must be dropped on Open without losing any complete record,
// and the truncated log must accept clean appends afterwards.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	for i := 0; i < 5; i++ {
		if _, err := j.AppendSync("rec", payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(dir, "log.jsonl")
	for _, tear := range []string{
		`{"crc":123,"rec":{"seq":`,                   // torn mid-line
		`{"crc":1,"rec":{"seq":6,"type":""}}` + "\n", // complete line, wrong CRC
		"garbage\n", // not JSON at all
	} {
		f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(tear); err != nil {
			t.Fatal(err)
		}
		f.Close()

		j2, rec, err := Open(dir)
		if err != nil {
			t.Fatalf("Open with torn tail %q: %v", tear, err)
		}
		if len(rec.Records) != 5 {
			t.Fatalf("tail %q: recovered %d records, want 5", tear, len(rec.Records))
		}
		if rec.TruncatedBytes != len(tear) {
			t.Fatalf("tail %q: truncated %d bytes, want %d", tear, rec.TruncatedBytes, len(tear))
		}
		// The log is clean again: append and reopen see 6 records.
		if _, err := j2.AppendSync("after", payload{N: 5}); err != nil {
			t.Fatal(err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		j3, rec3 := mustOpen(t, dir)
		if len(rec3.Records) != 6 || rec3.TruncatedBytes != 0 {
			t.Fatalf("after repair: %d records, %d truncated", len(rec3.Records), rec3.TruncatedBytes)
		}
		// Restore the 5-record log for the next tear case.
		if err := j3.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		cut := 0
		for i, b := range raw {
			if b == '\n' {
				lines++
				if lines == 5 {
					cut = i + 1
					break
				}
			}
		}
		if err := os.WriteFile(logPath, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactReplacesHistory compacts a state blob, checks the log resets,
// and verifies reopen returns the snapshot plus only post-snapshot records.
func TestCompactReplacesHistory(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	for i := 0; i < 8; i++ {
		if _, err := j.Append("pre", payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact(payload{N: 99, S: "state"}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := j.LogRecords(); got != 0 {
		t.Fatalf("LogRecords after compact = %d, want 0", got)
	}
	if got := j.Compactions(); got != 1 {
		t.Fatalf("Compactions=%d, want 1", got)
	}
	if _, err := j.AppendSync("post", payload{N: 100}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir)
	var st payload
	if err := json.Unmarshal(rec.State, &st); err != nil {
		t.Fatalf("snapshot state: %v", err)
	}
	if st.N != 99 || st.S != "state" {
		t.Fatalf("snapshot state %+v", st)
	}
	if len(rec.Records) != 1 || rec.Records[0].Type != "post" {
		t.Fatalf("post-snapshot records: %+v", rec.Records)
	}
}

// TestCrashBetweenSnapshotAndTruncate covers the one-crash-window in
// Compact: the snapshot is renamed into place but the old log survives.
// Open must not double-apply records the snapshot already covers.
func TestCrashBetweenSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	for i := 0; i < 4; i++ {
		if _, err := j.AppendSync("rec", payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Save the pre-compaction log, compact, then restore the stale log —
	// exactly the state a crash between rename and truncate leaves behind.
	logPath := filepath.Join(dir, "log.jsonl")
	stale, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(payload{N: 4}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := mustOpen(t, dir)
	defer j2.Close()
	if len(rec.Records) != 0 {
		t.Fatalf("stale pre-snapshot records leaked through: %+v", rec.Records)
	}
	if rec.State == nil {
		t.Fatal("snapshot state lost")
	}
	// The sequence counter continues past the snapshot's coverage.
	r, err := j2.Append("next", payload{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != 5 {
		t.Fatalf("seq after recovery = %d, want 5", r.Seq)
	}
}

// TestAppendAfterCloseFails pins the closed-journal contract.
func TestAppendAfterCloseFails(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append("x", payload{}); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := j.Compact(payload{}); err == nil {
		t.Fatal("compact after Close succeeded")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestWriteFileAtomicConcurrentWriters: writers racing to publish one path —
// a capture's write-through still in flight when its evicted key is
// captured and written again — must each publish a whole file of their own.
// Sharing one temp name let a second writer truncate the first's temp file
// before its rename, publishing a file still being written, and failed the
// other rename. Every call must succeed, the file must end as exactly one
// writer's payload, and no temp file may be left behind.
func TestWriteFileAtomicConcurrentWriters(t *testing.T) {
	const writers, rounds, size = 8, 50, 64 << 10
	dir := t.TempDir()
	path := filepath.Join(dir, "frame.dag")
	payloads := make([][]byte, writers)
	for w := range payloads {
		payloads[w] = bytes.Repeat([]byte{byte('a' + w)}, size)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers*rounds)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(data []byte) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				errs <- WriteFileAtomic(path, data, 0o644)
			}
		}(payloads[w])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("WriteFileAtomic: %v", err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(payloads, func(p []byte) bool { return bytes.Equal(got, p) }) {
		t.Errorf("published file (%d bytes) is no writer's payload", len(got))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only the published file", names)
	}
}

// listState encodes a list of payloads one element at a time, each with
// an encoder's trailing newline: a StateEncoder writing in pieces.
type listState []payload

func (l listState) EncodeState(w io.Writer) error {
	enc := json.NewEncoder(w)
	io.WriteString(w, "[")
	for i := range l {
		if i > 0 {
			io.WriteString(w, ",")
		}
		if err := enc.Encode(l[i]); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]")
	return err
}

// TestCompactWritesMarshalledSnapshot: Compact streams the state into the
// snapshot file instead of marshalling it, and the file must still be
// byte for byte json.Marshal(snapshot{...}) of the state's json.Marshal
// encoding, CRC included — for a plain value and for a StateEncoder that
// writes in pieces ending in newlines — and Open must recover exactly
// that encoding.
func TestCompactWritesMarshalledSnapshot(t *testing.T) {
	items := listState{{N: 1, S: "<a&b>"}, {N: 2}, {N: 3, S: "line\nbreak  "}}
	for _, tc := range []struct {
		name  string
		state any
		want  any // what json.Marshal must encode the state as
	}{
		{"value", payload{N: 7, S: "x<y"}, payload{N: 7, S: "x<y"}},
		{"encoder", items, []payload(items)},
		{"empty encoder", listState{}, []payload{}},
	} {
		dir := t.TempDir()
		j, _ := mustOpen(t, dir)
		if _, err := j.Append("pre", payload{N: 1}); err != nil {
			t.Fatal(err)
		}
		if err := j.Compact(tc.state); err != nil {
			t.Fatalf("%s: Compact: %v", tc.name, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(snapshot{V: Version, Seq: 1, State: raw, CRC: crc32.ChecksumIEEE(raw)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot\n%s\nwant\n%s", tc.name, got, want)
		}
		_, rec := mustOpen(t, dir)
		if !bytes.Equal(rec.State, raw) {
			t.Errorf("%s: recovered state %s, want %s", tc.name, rec.State, raw)
		}
	}
}
