package server

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"

	"supersim/internal/journal"
)

// The job store is the one journaled job lifecycle, shared by simd (jobs)
// and simcoord (dispatches). It owns the ordered set of job records and,
// opened on a directory, journals every change to it:
//
//	accept — fsynced BEFORE the owner acknowledges the job: an acked job
//	         is on disk, always. Carries the record's identity (ID,
//	         tenant, source, full spec) and inserts it into the set.
//	finish — appended (without fsync) when a job reaches a terminal
//	         state (done/failed/dead); overwrites the record's outcome.
//	         Losing one is harmless: recovery re-queues the job and
//	         replay determinism makes the re-run bit-identical.
//	cron   — fsynced on every recurring-template add/remove (simd only).
//	drain  — appended at graceful shutdown, marking the jobs the drain
//	         re-queued; purely informational (they are accepted-without-
//	         finish either way), it makes SIGTERM and SIGKILL converge on
//	         the same recovered state by construction (simd only).
//
// Recovery replays the log through the methods live records go through
// (Accept, Finish, cron), so the snapshot is the state itself, written
// at open, every compactEvery finishes and at Close. Evict bounds
// the set to the newest retained finished records. Opened without a
// directory the store keeps the same set in memory and journals nothing.
const (
	recAccept = "accept"
	recFinish = "finish"
	recCron   = "cron"
	recDrain  = "drain"

	// recDispatch is what simcoord's own journal called an accept before it
	// ran on this store; its {id, spec} payload is a subset of JobRecord.
	recDispatch = "dispatch"
)

// Defaults of Config.RetainJobs and Config.CompactEvery; simcoord's values.
const (
	DefaultRetainJobs   = 256
	DefaultCompactEvery = 256
)

// JobOutcome is the part of a JobRecord a finish record overwrites.
type JobOutcome struct {
	Status      string     `json:"status,omitempty"` // done | failed | dead once finished
	Error       string     `json:"error,omitempty"`
	Cache       string     `json:"cache,omitempty"`
	Attempts    int        `json:"attempts,omitempty"`
	Fingerprint string     `json:"fingerprint,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

// JobRecord is a job's durable state, in every place it is written: the
// accept record (identity only), the finish record (ID and outcome only)
// and the snapshot (both).
type JobRecord struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant,omitempty"`
	Source string   `json:"source,omitempty"` // "cron:<id>" for cron firings
	Spec   *JobSpec `json:"spec,omitempty"`
	JobOutcome
}

// Finished reports whether the record holds a terminal outcome; anything
// else re-runs on recovery.
func (r *JobRecord) Finished() bool {
	switch r.Status {
	case StatusDone, StatusFailed, StatusDead:
		return true
	}
	return false
}

// cronRecord journals a recurring-template change.
type cronRecord struct {
	Remove bool     `json:"remove,omitempty"`
	Cron   CronSpec `json:"cron"`
}

// drainRecord journals the IDs a graceful drain re-queued.
type drainRecord struct {
	Requeued []string `json:"requeued,omitempty"`
}

// storeState is the snapshot blob and the store's live state: the ID
// counters, the job records in accept order and the cron templates.
type storeState struct {
	NextID   uint64      `json:"next_id"`
	NextCron uint64      `json:"next_cron,omitempty"`
	Jobs     []JobRecord `json:"jobs,omitempty"`
	Crons    []CronSpec  `json:"crons,omitempty"`
}

// EncodeState writes the bytes json.Marshal gives for the state, one job
// record at a time (journal.StateEncoder), so a compaction never holds
// the encoding of a full store, over a megabyte of sweep results, in
// memory. Only the last write's error is checked: the journal's writer
// fails every write after a failed one.
func (s storeState) EncodeState(w io.Writer) error {
	enc := json.NewEncoder(w)
	fmt.Fprintf(w, `{"next_id":%d`, s.NextID)
	if s.NextCron != 0 {
		fmt.Fprintf(w, `,"next_cron":%d`, s.NextCron)
	}
	if len(s.Jobs) > 0 {
		io.WriteString(w, `,"jobs":[`)
		for i := range s.Jobs {
			if i > 0 {
				io.WriteString(w, ",")
			}
			if err := enc.Encode(&s.Jobs[i]); err != nil {
				return err
			}
		}
		io.WriteString(w, "]")
	}
	if len(s.Crons) > 0 {
		io.WriteString(w, `,"crons":`)
		if err := enc.Encode(s.Crons); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}")
	return err
}

// find returns the record with the given ID, or nil. It scans from the
// newest record: the ones that get finished are the latest accepted, and
// the set is bounded by the retention bound plus what is in flight.
func (s *storeState) find(id string) *JobRecord {
	for i := len(s.Jobs) - 1; i >= 0; i-- {
		if s.Jobs[i].ID == id {
			return &s.Jobs[i]
		}
	}
	return nil
}

// idSeq parses the numeric suffix of a generated ID ("j-000042", ...).
func idSeq(id, prefix string) uint64 {
	var n uint64
	if _, err := fmt.Sscanf(id, prefix+"%d", &n); err != nil {
		return 0
	}
	return n
}

// Store is the journaled job lifecycle. Methods are safe for concurrent
// use.
type Store struct {
	j            *journal.Journal // nil without a directory
	idPrefix     string
	compactEvery int
	retain       int

	// io orders every journal write with the state change it implies, so a
	// snapshot never covers a sequence number whose record it lacks. Held
	// across fsyncs: owners call Accept/Finish/Close outside their locks.
	io       sync.Mutex
	finishes int // finish records since the last compaction; touched under io only
	// mu guards the state and is never held across journal I/O, so owners
	// may call IDs, Evict and NextID under their own locks.
	mu    sync.Mutex
	state storeState // guarded-by: mu

	recovered, restored int // unfinished / finished records found at open
}

// OpenStore opens the store. With dir set it opens the journal there,
// folds snapshot + log into the state, applies the retention bound and
// compacts, so the log starts clean; with dir empty the store is
// memory-only. IDs are minted as idPrefix + a six-digit sequence that
// never repeats one found on disk.
//
//simlint:allow guarded — construction precedes publication: the store is not shared until OpenStore returns
func OpenStore(dir, idPrefix string, compactEvery, retain int) (*Store, error) {
	st := &Store{idPrefix: idPrefix, compactEvery: compactEvery, retain: retain}
	if dir == "" {
		return st, nil
	}
	j, rec, err := journal.Open(dir)
	if err != nil {
		return nil, err
	}
	if rec.State != nil {
		if err := json.Unmarshal(rec.State, &st.state); err != nil {
			j.Close()
			return nil, fmt.Errorf("server: corrupt store snapshot: %w", err)
		}
	}
	// The log tail goes through the methods live records go through; with
	// no journal attached yet they only fold. A record that passed its CRC
	// but does not decode is a version skew: skipped, not fatal. Drain
	// records are informational: a drained job is an accept without a
	// finish either way.
	for _, r := range rec.Records {
		var job JobRecord
		var cron cronRecord
		switch r.Type {
		case recAccept, recDispatch:
			if json.Unmarshal(r.Data, &job) == nil {
				_ = st.Accept(job)
			}
		case recFinish:
			if json.Unmarshal(r.Data, &job) == nil {
				st.Finish(job)
			}
		case recCron:
			if json.Unmarshal(r.Data, &cron) == nil {
				_ = st.cron(cron.Cron, cron.Remove)
			}
		}
	}
	// The snapshot's counters lag behind records journaled after the last
	// compaction; fold the recovered IDs back in so a recovered store
	// never re-mints an existing ID.
	for i := range st.state.Jobs {
		st.state.NextID = max(st.state.NextID, idSeq(st.state.Jobs[i].ID, idPrefix))
		if st.state.Jobs[i].Finished() {
			st.restored++
		} else {
			st.recovered++
		}
	}
	for i := range st.state.Crons {
		st.state.NextCron = max(st.state.NextCron, idSeq(st.state.Crons[i].ID, "c-"))
	}
	st.restored -= len(st.Evict(nil))
	st.j = j
	if err := st.compact(); err != nil {
		j.Close()
		return nil, err
	}
	return st, nil
}

// NextID mints the next job ID.
func (st *Store) NextID() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.state.NextID++
	return fmt.Sprintf("%s%06d", st.idPrefix, st.state.NextID)
}

// nextCronID mints the next cron template ID.
func (st *Store) nextCronID() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.state.NextCron++
	return fmt.Sprintf("c-%06d", st.state.NextCron)
}

// Accept journals an acknowledged submission, fsynced, and then inserts
// the record with an empty outcome (a duplicate ID keeps the record
// already present): when it returns nil the job survives SIGKILL; when it
// returns an error the set is unchanged.
func (st *Store) Accept(rec JobRecord) error {
	if rec.Spec == nil {
		return fmt.Errorf("server: accept of %s carries no spec", rec.ID)
	}
	rec.JobOutcome = JobOutcome{}
	st.io.Lock()
	defer st.io.Unlock()
	if st.j != nil {
		if _, err := st.j.AppendSync(recAccept, rec); err != nil {
			return fmt.Errorf("server: journalling accept of %s: %w", rec.ID, err)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.state.find(rec.ID) == nil {
		st.state.Jobs = append(st.state.Jobs, rec)
	}
	return nil
}

// Finish journals a terminal transition and overwrites the outcome of the
// record with rec's ID, compacting every compactEvery finishes. A live
// finish that outran its own accept (a pool worker can finish a job while
// the submitter still waits for the fsync) carries the identity too and
// is inserted whole; a replayed one (no spec) for an unknown ID is
// dropped. A failed append or compaction is not escalated: the re-run on
// recovery is bit-identical, and a missed compaction only means a longer
// log.
func (st *Store) Finish(rec JobRecord) {
	st.io.Lock()
	defer st.io.Unlock()
	if st.j != nil {
		_, _ = st.j.Append(recFinish, JobRecord{ID: rec.ID, JobOutcome: rec.JobOutcome})
	}
	st.mu.Lock()
	if have := st.state.find(rec.ID); have != nil {
		have.JobOutcome = rec.JobOutcome
	} else if rec.Spec != nil {
		st.state.Jobs = append(st.state.Jobs, rec)
	}
	st.mu.Unlock()
	if st.finishes++; st.finishes >= st.compactEvery {
		_ = st.compact()
	}
}

// Evict applies the retention bound: it drops the oldest finished records
// beyond it and returns their IDs so the owner drops its own entries. A
// non-nil evictable lets the owner keep a finished record it still needs;
// it runs under the state lock and must not call the store.
func (st *Store) Evict(evictable func(id string) bool) []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	jobs := st.state.Jobs
	if len(jobs) <= st.retain {
		return nil
	}
	var evicted []string
	kept := jobs[:0]
	for _, rec := range jobs {
		if len(jobs)-len(evicted) > st.retain && rec.Finished() && (evictable == nil || evictable(rec.ID)) {
			evicted = append(evicted, rec.ID)
		} else {
			kept = append(kept, rec)
		}
	}
	clear(jobs[len(kept):]) // release the dropped specs and results
	st.state.Jobs = kept
	return evicted
}

// IDs returns the record IDs in accept order.
func (st *Store) IDs() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	ids := make([]string, len(st.state.Jobs))
	for i := range st.state.Jobs {
		ids[i] = st.state.Jobs[i].ID
	}
	return ids
}

// Jobs returns a copy of the records in accept order.
func (st *Store) Jobs() []JobRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]JobRecord(nil), st.state.Jobs...)
}

// crons returns a copy of the recurring templates in add order.
func (st *Store) crons() []CronSpec {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]CronSpec(nil), st.state.Crons...)
}

// cron journals a recurring-template change, fsynced, and adds, replaces
// or removes the template, keeping add order.
func (st *Store) cron(spec CronSpec, remove bool) error {
	st.io.Lock()
	defer st.io.Unlock()
	if st.j != nil {
		if _, err := st.j.AppendSync(recCron, cronRecord{Remove: remove, Cron: spec}); err != nil {
			return fmt.Errorf("server: journalling cron change: %w", err)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	crons := st.state.Crons
	i := slices.IndexFunc(crons, func(c CronSpec) bool { return c.ID == spec.ID })
	switch {
	case i < 0 && !remove:
		st.state.Crons = append(crons, spec)
	case i >= 0 && remove:
		st.state.Crons = slices.Delete(crons, i, i+1)
	case i >= 0:
		crons[i] = spec
	}
	return nil
}

// drainMark journals the IDs a graceful drain re-queued.
func (st *Store) drainMark(ids []string) {
	if st.j == nil || len(ids) == 0 {
		return
	}
	st.io.Lock()
	defer st.io.Unlock()
	_, _ = st.j.Append(recDrain, drainRecord{Requeued: ids})
}

// compact snapshots the state and truncates the log. Unfinished records
// carry no outcome, so they snapshot as what they are: accepted, to be
// re-run. Caller holds st.io (or is OpenStore).
func (st *Store) compact() error {
	st.finishes = 0
	if st.j == nil {
		return nil
	}
	st.mu.Lock()
	state := st.state
	state.Jobs = append([]JobRecord(nil), state.Jobs...)
	state.Crons = append([]CronSpec(nil), state.Crons...)
	st.mu.Unlock()
	return st.j.Compact(state)
}

// Close compacts the final state and closes the journal; a failed
// compaction degrades to a longer recovery replay.
func (st *Store) Close() error {
	if st.j == nil {
		return nil
	}
	st.io.Lock()
	defer st.io.Unlock()
	err := st.compact()
	if cerr := st.j.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats reports the store section of /metrics.
func (st *Store) Stats() StoreStats {
	s := StoreStats{Durable: st.j != nil, Recovered: st.recovered, Restored: st.restored}
	if st.j != nil {
		s.Seq, s.LogRecords, s.Compactions = st.j.Seq(), st.j.LogRecords(), st.j.Compactions()
	}
	return s
}
