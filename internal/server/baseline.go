package server

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"supersim/internal/journal"
)

// baselineRecord pins the first result a cron template produced: the
// deterministic fingerprint plus the makespan curve behind it (for drift
// magnitude reporting). One JSON file per cron ID under
// <data-dir>/baselines/, published atomically beside the journal.
type baselineRecord struct {
	CronID       string    `json:"cron_id"`
	JobID        string    `json:"job_id"`
	Fingerprint  string    `json:"fingerprint"`
	Makespans    []float64 `json:"makespans,omitempty"`
	MeanMakespan float64   `json:"mean_makespan,omitempty"`
}

// RegressionReport is attached to a cron firing's JobResult when the
// server has a data dir: the first firing establishes the baseline, every
// later firing is diffed against it. A simulation is deterministic for a
// fixed spec, so Match=false on a nightly sweep means the code under test
// changed behavior — exactly what a nightly is for.
type RegressionReport struct {
	// Baseline marks the firing that established the baseline record.
	Baseline bool `json:"baseline,omitempty"`
	// BaselineJob is the job whose result the baseline pinned.
	BaselineJob string `json:"baseline_job,omitempty"`
	// Match reports whether this firing reproduced the baseline fingerprint.
	Match bool `json:"match"`
	// Drift describes the divergence when Match is false.
	Drift string `json:"drift,omitempty"`
}

// baselineStore owns the per-cron baseline records. All methods are
// nil-receiver safe: a memory-only server (no -data-dir) never
// establishes baselines and never reports drift.
type baselineStore struct {
	dir string
	mu  sync.Mutex // serializes read-modify-write per check

	established atomic.Uint64 // baselines written
	checks      atomic.Uint64 // firings compared against a baseline
	drifts      atomic.Uint64 // comparisons that diverged
}

// newBaselineStore opens (creating if needed) the baseline directory and
// removes the temp files of baseline writes a crash cut short.
// Returns nil — disabling regression tracking — when dir is empty or
// cannot be created.
func newBaselineStore(dir string) *baselineStore {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil
	}
	journal.RemoveTemps(dir)
	return &baselineStore{dir: dir}
}

// check compares one cron firing's result against the template's pinned
// baseline, establishing it from this result if absent (or unreadable —
// a corrupt record heals by re-pinning, mirroring the .dag cache). The
// returned report is nil only when tracking is off or the result carries
// no fingerprint.
func (b *baselineStore) check(cronID, jobID string, res *JobResult) *RegressionReport {
	if b == nil || res == nil || res.Fingerprint == "" {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	path := filepath.Join(b.dir, pathSafe(cronID)+".json")
	var rec baselineRecord
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &rec)
	}
	if err != nil {
		rec = baselineRecord{
			CronID:       cronID,
			JobID:        jobID,
			Fingerprint:  res.Fingerprint,
			Makespans:    res.Makespans,
			MeanMakespan: res.MeanMakespan,
		}
		data, merr := json.MarshalIndent(rec, "", "  ")
		if merr != nil {
			return nil
		}
		if werr := journal.WriteFileAtomic(path, data, 0o644); werr != nil {
			return nil
		}
		b.established.Add(1)
		return &RegressionReport{Baseline: true, Match: true}
	}
	b.checks.Add(1)
	rep := &RegressionReport{BaselineJob: rec.JobID, Match: rec.Fingerprint == res.Fingerprint}
	if !rep.Match {
		b.drifts.Add(1)
		rep.Drift = driftDetail(&rec, res)
	}
	return rep
}

// driftDetail renders a divergence for operators: the fingerprint pair,
// plus the worst per-repetition makespan delta when both curves exist.
func driftDetail(rec *baselineRecord, res *JobResult) string {
	d := fmt.Sprintf("fingerprint %s != baseline %s (job %s)", res.Fingerprint, rec.Fingerprint, rec.JobID)
	n := len(rec.Makespans)
	if len(res.Makespans) < n {
		n = len(res.Makespans)
	}
	if len(res.Makespans) != len(rec.Makespans) {
		return fmt.Sprintf("%s; curve length %d != baseline %d", d, len(res.Makespans), len(rec.Makespans))
	}
	worst, at := 0.0, -1
	for i := 0; i < n; i++ {
		base := rec.Makespans[i]
		if base == 0 {
			continue
		}
		if rel := math.Abs(res.Makespans[i]-base) / base; rel > worst {
			worst, at = rel, i
		}
	}
	if at >= 0 && worst > 0 {
		d = fmt.Sprintf("%s; makespan rep %d drifted %+.3g%% (%.6g -> %.6g)",
			d, at, 100*(res.Makespans[at]-rec.Makespans[at])/rec.Makespans[at], rec.Makespans[at], res.Makespans[at])
	}
	return d
}

// stats reports the regression counters for /metrics.
func (b *baselineStore) stats() (established, checks, drifts uint64) {
	if b == nil {
		return 0, 0, 0
	}
	return b.established.Load(), b.checks.Load(), b.drifts.Load()
}
