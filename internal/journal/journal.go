// Package journal implements the append-only, versioned record log that
// backs the simulation service's durable job store. A Journal is a
// directory holding two files:
//
//	log.jsonl     — one CRC-framed JSON record per line, appended in
//	                sequence order; fsynced on demand (AppendSync)
//	snapshot.json — the last compacted state plus the sequence number it
//	                covers, written atomically (tmp + rename)
//
// The caller appends typed records (Append/AppendSync) and periodically
// compacts them into an opaque state blob (Compact), which truncates the
// log. Open replays snapshot + log tail and hands both back; records whose
// sequence the snapshot already covers are skipped, so a crash between the
// snapshot rename and the log truncation recovers cleanly.
//
// Torn tails are expected: a SIGKILL can land mid-write, leaving a partial
// or CRC-corrupt final line. Open stops at the first bad line, truncates
// the log there, and reports how many bytes it dropped — every record
// whose append returned is still intact, because lines are written with a
// single write(2) and the durability-critical ones are fsynced before the
// caller acknowledges anything.
//
// A journal has a single writer (the daemon that owns the data dir); the
// package does no cross-process locking. It legitimately reads the wall
// clock (record timestamps for operators) and is registered as a
// wall-clock package with simlint (analysis.WallClockPackages).
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Version is the on-disk format version stamped into snapshots and
// validated on Open.
const Version = 1

const (
	logName      = "log.jsonl"
	snapshotName = "snapshot.json"
)

// Record is one journaled entry: an application-defined type tag plus an
// opaque payload, stamped with its sequence number and append time.
type Record struct {
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`
	// TimeMS is the wall-clock append time (Unix milliseconds); purely
	// informational for operators, never used by recovery.
	TimeMS int64           `json:"t_ms,omitempty"`
	Data   json.RawMessage `json:"data,omitempty"`
}

// envelope is one physical log line: the marshalled Record plus an IEEE
// CRC32 over exactly those bytes, so a torn or bit-rotted line is detected
// rather than half-parsed.
type envelope struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// snapshot is the on-disk form of a compacted state.
type snapshot struct {
	V     int             `json:"v"`
	Seq   uint64          `json:"seq"` // highest record sequence the state covers
	State json.RawMessage `json:"state"`
	CRC   uint32          `json:"crc"` // over the State bytes
}

// Recovered is what Open reconstructed from disk.
type Recovered struct {
	// State is the last compacted state blob (nil when never compacted).
	State json.RawMessage
	// Records are the log records appended after the snapshot, in order.
	Records []Record
	// TruncatedBytes is the size of the torn tail dropped from the log
	// (0 on a clean shutdown).
	TruncatedBytes int
}

// Journal is an open record log. Methods are safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	dir     string
	log     *os.File // guarded-by: mu
	seq     uint64   // guarded-by: mu — last assigned sequence
	logRecs int      // guarded-by: mu — records in the live log since compaction
	compact uint64   // guarded-by: mu — lifetime compaction count
	closed  bool     // guarded-by: mu
}

// Open creates dir if needed, removes the temp files of snapshot writes a
// crash cut short (RemoveTemps), replays the snapshot and the valid log
// prefix, truncates any torn tail, and returns the journal positioned for
// appending.
//
//simlint:allow guarded — construction precedes publication: the journal is not shared until Open returns
func Open(dir string) (*Journal, Recovered, error) {
	var rec Recovered
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	RemoveTemps(dir)

	snapSeq := uint64(0)
	if raw, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		var sn snapshot
		if err := json.Unmarshal(raw, &sn); err != nil {
			return nil, rec, fmt.Errorf("journal: corrupt snapshot: %w", err)
		}
		if sn.V != Version {
			return nil, rec, fmt.Errorf("journal: snapshot version %d, this build reads %d", sn.V, Version)
		}
		if crc32.ChecksumIEEE(sn.State) != sn.CRC {
			return nil, rec, fmt.Errorf("journal: snapshot CRC mismatch")
		}
		rec.State = sn.State
		snapSeq = sn.Seq
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, rec, fmt.Errorf("journal: reading snapshot: %w", err)
	}

	logPath := filepath.Join(dir, logName)
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, rec, fmt.Errorf("journal: opening log: %w", err)
	}
	raw, err := os.ReadFile(logPath)
	if err != nil {
		f.Close()
		return nil, rec, fmt.Errorf("journal: reading log: %w", err)
	}

	j := &Journal{dir: dir, log: f, seq: snapSeq}
	valid := 0 // byte offset of the end of the last good line
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // incomplete final line: torn tail
		}
		line := raw[off : off+nl]
		r, ok := decodeLine(line)
		if !ok {
			break // corrupt line: everything after is suspect
		}
		off += nl + 1
		valid = off
		if r.Seq <= snapSeq {
			continue // compacted away already (crash between rename and truncate)
		}
		rec.Records = append(rec.Records, r)
		j.logRecs++
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}
	rec.TruncatedBytes = len(raw) - valid
	if rec.TruncatedBytes > 0 {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, rec, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, rec, fmt.Errorf("journal: seeking log end: %w", err)
	}
	return j, rec, nil
}

// decodeLine parses and CRC-verifies one log line.
func decodeLine(line []byte) (Record, bool) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Record{}, false
	}
	if crc32.ChecksumIEEE(env.Rec) != env.CRC {
		return Record{}, false
	}
	var r Record
	if err := json.Unmarshal(env.Rec, &r); err != nil {
		return Record{}, false
	}
	return r, true
}

// Append writes one record to the log without forcing it to disk; use it
// for records whose loss is recoverable (a lost completion record just
// means the deterministic job re-runs). It returns the stamped record.
func (j *Journal) Append(typ string, data any) (Record, error) {
	return j.append(typ, data, false)
}

// AppendSync writes one record and fsyncs the log before returning: once
// it returns, the record survives SIGKILL. Use it for acknowledgements.
func (j *Journal) AppendSync(typ string, data any) (Record, error) {
	return j.append(typ, data, true)
}

func (j *Journal) append(typ string, data any, sync bool) (Record, error) {
	payload, err := json.Marshal(data)
	if err != nil {
		return Record{}, fmt.Errorf("journal: marshalling %s payload: %w", typ, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return Record{}, fmt.Errorf("journal: append %s after Close", typ)
	}
	j.seq++
	r := Record{
		Seq:    j.seq,
		Type:   typ,
		TimeMS: time.Now().UnixMilli(), //simlint:allow vclock — operator timestamp, never read by recovery
		Data:   payload,
	}
	if _, err := j.log.Write(encodeLine(r)); err != nil {
		j.seq--
		return Record{}, fmt.Errorf("journal: appending %s: %w", typ, err)
	}
	j.logRecs++
	if sync {
		if err := j.log.Sync(); err != nil {
			return Record{}, fmt.Errorf("journal: fsync after %s: %w", typ, err)
		}
	}
	return r, nil
}

// envelopeRoom is the longest envelope head, `{"crc":4294967295,"rec":`.
const envelopeRoom = len(`{"crc":4294967295,"rec":`)

// encodeLine writes r's log line: the bytes json.Marshal gives for the
// envelope around json.Marshal(r), newline-terminated, with r.Data (an
// already marshalled, compact payload) copied once instead of re-encoded
// twice. The record goes in after room for the envelope's head, whose
// CRC is known only once the record is written.
func encodeLine(r Record) []byte {
	typ, _ := json.Marshal(r.Type) // a string always marshals
	buf := make([]byte, envelopeRoom, envelopeRoom+len(typ)+len(r.Data)+80)
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, r.Seq, 10)
	buf = append(buf, `,"type":`...)
	buf = append(buf, typ...)
	if r.TimeMS != 0 {
		buf = append(buf, `,"t_ms":`...)
		buf = strconv.AppendInt(buf, r.TimeMS, 10)
	}
	if len(r.Data) > 0 {
		buf = append(buf, `,"data":`...)
		buf = append(buf, r.Data...)
	}
	buf = append(buf, '}')
	head := strconv.AppendUint(append(make([]byte, 0, envelopeRoom), `{"crc":`...),
		uint64(crc32.ChecksumIEEE(buf[envelopeRoom:])), 10)
	head = append(head, `,"rec":`...)
	start := envelopeRoom - len(head)
	copy(buf[start:], head)
	return append(buf[start:], '}', '\n')
}

// Sync forces every appended record to disk.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	return j.log.Sync()
}

// WriteFileAtomic publishes data at path with full-file atomicity: the
// bytes are written to a temp file of their own in path's directory,
// fsynced, and renamed over path. A reader (or a crash) observes either
// the old file or a complete new one, never a torn mix — the invariant
// every durable artifact beside the journal (capture-cache frames, cron
// baselines) must uphold, and the one simlint's durable analyzer enforces
// for writes under a data dir. Concurrent calls on one path each publish
// a whole file, the last rename winning; the temp file is removed on every
// error path.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return writeAtomic(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeAtomic is WriteFileAtomic for contents that write writes to the
// temp file; an error from write leaves path as it was.
func writeAtomic(path string, perm os.FileMode, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+tempInfix+"*")
	if err != nil {
		return fmt.Errorf("journal: creating a temp file for %s: %w", path, err)
	}
	tmp := f.Name()
	err = f.Chmod(perm)
	if err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: publishing %s: %w", path, err)
	}
	return nil
}

// tempInfix sits between a published file's name and the random digits
// os.CreateTemp appends in WriteFileAtomic's temp file names.
const tempInfix = ".tmp"

// RemoveTemps deletes the temp files WriteFileAtomic left in dir: a crash
// between creating one and renaming it over its target leaves it behind,
// and no later write ever reuses its name. A temp file of a write in
// progress looks the same, so only dir's one owner may call this, when it
// opens dir and before it writes there. Errors are ignored: a file that
// stays costs disk space, not correctness.
func RemoveTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		i := strings.LastIndex(name, tempInfix)
		if i <= 0 || !e.Type().IsRegular() {
			continue
		}
		if digits := name[i+len(tempInfix):]; digits != "" && strings.Trim(digits, "0123456789") == "" {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// Compact atomically replaces the record history with state: the snapshot
// is written via WriteFileAtomic (temp + fsync + rename over
// snapshot.json), and the log is truncated. A crash at any point recovers
// either the old history or the new snapshot, never a mix. A state that
// is a StateEncoder is encoded a piece at a time straight into the
// snapshot file; any other is encoded whole, as json.Marshal would, and
// then written.
func (j *Journal) Compact(state any) error {
	enc, ok := state.(StateEncoder)
	if !ok {
		enc = valueState{state}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: Compact after Close")
	}
	if err := writeAtomic(filepath.Join(j.dir, snapshotName), 0o644, func(w io.Writer) error {
		return writeSnapshot(w, j.seq, enc)
	}); err != nil {
		return err
	}
	// The snapshot now covers every appended record; drop the log. A crash
	// before the truncate is fine: Open skips records with seq <= snapshot.
	if err := j.log.Truncate(0); err != nil {
		return fmt.Errorf("journal: truncating log after snapshot: %w", err)
	}
	if _, err := j.log.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: rewinding log: %w", err)
	}
	j.logRecs = 0
	j.compact++
	return nil
}

// StateEncoder is a snapshot state that writes its own JSON encoding,
// for a state too large to marshal whole at every compaction. EncodeState
// writes one JSON value to w in as many writes as it likes; a write may
// end in a newline (a json.Encoder ends each value with one), which the
// snapshot drops, so a json.Encoder on w can encode the state a piece at a
// time. Once a write to w fails, every later one fails too, so an encoder
// may check only the error of its last write.
type StateEncoder interface {
	EncodeState(w io.Writer) error
}

// valueState encodes any other state whole, as json.Marshal does.
type valueState struct{ v any }

func (s valueState) EncodeState(w io.Writer) error { return json.NewEncoder(w).Encode(s.v) }

// writeSnapshot writes the snapshot of state at seq to w: the bytes
// json.Marshal gives for snapshot{Version, seq, state's encoding, its
// CRC}, with the state streamed through a stateWriter.
func writeSnapshot(w io.Writer, seq uint64, state StateEncoder) error {
	bw := bufio.NewWriterSize(w, snapshotBuffer)
	fmt.Fprintf(bw, `{"v":%d,"seq":%d,"state":`, Version, seq)
	sw := stateWriter{w: bw}
	if err := state.EncodeState(&sw); err != nil {
		return fmt.Errorf("journal: encoding snapshot state: %w", err)
	}
	fmt.Fprintf(bw, `,"crc":%d}`, sw.crc)
	return bw.Flush() // reports the first failed write, if any
}

// snapshotBuffer is the write buffer between a state's encoder and the
// snapshot file.
const snapshotBuffer = 32 << 10

// stateWriter passes a state's encoding on to the snapshot without the
// newline that ends a write, and sums the CRC over exactly the bytes it
// passes on.
type stateWriter struct {
	w   io.Writer
	crc uint32
}

func (s *stateWriter) Write(p []byte) (int, error) {
	b := p
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, b)
	if _, err := s.w.Write(b); err != nil {
		return 0, err
	}
	return len(p), nil
}

// LogRecords returns the number of records in the live log (appended since
// the last compaction) — the caller's compaction trigger.
func (j *Journal) LogRecords() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.logRecs
}

// Seq returns the last assigned record sequence number.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Compactions returns the lifetime compaction count.
func (j *Journal) Compactions() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compact
}

// Close syncs and closes the log. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	syncErr := j.log.Sync()
	closeErr := j.log.Close()
	if syncErr != nil {
		return fmt.Errorf("journal: final sync: %w", syncErr)
	}
	return closeErr
}
