package server

import (
	"path/filepath"
	"testing"
	"time"
)

// fireCron injects spec as if cron template cronID had fired it, waits for
// completion and returns the finished job's result.
func fireCron(t *testing.T, srv *Server, cronID string, spec JobSpec) *JobResult {
	t.Helper()
	job, err := srv.submitAs(srv.defaultTenant(), spec, "cron:"+cronID, clusterHints{})
	if err != nil {
		t.Fatalf("submit cron firing: %v", err)
	}
	if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
		t.Fatalf("cron firing finished %q: %s", st, job.view().Error)
	}
	res := job.view().Result
	if res == nil {
		t.Fatal("cron firing has no result")
	}
	return res
}

// TestCronBaselineRegression pins the nightly-regression contract: a cron
// template's first firing establishes a baseline under
// <data-dir>/baselines/, identical later firings match it, a diverging
// result is flagged on the job, in the template view and in /metrics —
// and the baseline survives a restart.
func TestCronBaselineRegression(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Config{Pool: 2, DataDir: dir})
	srv.cron.add(CronSpec{ID: "c-000001", EveryMS: 3600_000, Spec: diskSpec(5)})

	// First firing: establishes the baseline.
	first := fireCron(t, srv, "c-000001", diskSpec(5))
	if first.Regression == nil || !first.Regression.Baseline || !first.Regression.Match {
		t.Fatalf("first firing regression %+v, want baseline established", first.Regression)
	}
	if recs, _ := filepath.Glob(filepath.Join(dir, "baselines", "*.json")); len(recs) != 1 {
		t.Fatalf("baseline records %v, want exactly one", recs)
	}

	// Identical spec: deterministic replay must reproduce the baseline.
	same := fireCron(t, srv, "c-000001", diskSpec(5))
	if same.Regression == nil || !same.Regression.Match || same.Regression.Baseline {
		t.Fatalf("repeat firing regression %+v, want match against baseline", same.Regression)
	}
	if same.Regression.Drift != "" {
		t.Fatalf("matching firing carries drift detail %q", same.Regression.Drift)
	}

	// A changed result (different graph under the same template) must be
	// flagged — this is what a code regression looks like to a nightly.
	changed := diskSpec(5)
	changed.NT = 7
	drifted := fireCron(t, srv, "c-000001", changed)
	if drifted.Regression == nil || drifted.Regression.Match {
		t.Fatalf("diverging firing regression %+v, want drift", drifted.Regression)
	}
	if drifted.Regression.Drift == "" {
		t.Fatal("drift report has no detail")
	}

	m := srv.Metrics()
	if m.Regression.Baselines != 1 || m.Regression.Checks != 2 || m.Regression.Drifts != 1 {
		t.Fatalf("regression metrics %+v, want baselines=1 checks=2 drifts=1", m.Regression)
	}
	if v, ok := srv.cron.get("c-000001"); !ok || v.Drifts != 1 {
		t.Fatalf("cron view drifts %d (ok=%v), want 1", v.Drifts, ok)
	}
	shutdownServer(t, srv)

	// The baseline is durable: a restarted daemon diffs against the
	// original record, not a fresh one.
	srv2 := newTestServer(t, Config{Pool: 2, DataDir: dir})
	again := fireCron(t, srv2, "c-000001", diskSpec(5))
	if again.Regression == nil || !again.Regression.Match || again.Regression.Baseline {
		t.Fatalf("post-restart firing regression %+v, want match against persisted baseline", again.Regression)
	}
	drifted2 := fireCron(t, srv2, "c-000001", changed)
	if drifted2.Regression == nil || drifted2.Regression.Match {
		t.Fatalf("post-restart diverging firing %+v, want drift", drifted2.Regression)
	}
	if m := srv2.Metrics(); m.Regression.Baselines != 0 || m.Regression.Checks != 2 || m.Regression.Drifts != 1 {
		t.Fatalf("post-restart regression metrics %+v, want baselines=0 checks=2 drifts=1", m.Regression)
	}
}

// TestAPIJobsSkipBaseline checks that plain API submissions never touch
// the baseline store: regression tracking is a property of cron firings.
func TestAPIJobsSkipBaseline(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Config{Pool: 2, DataDir: dir})
	res := runDiskJob(t, srv, diskSpec(5))
	if res.Result.Regression != nil {
		t.Fatalf("API job carries a regression report: %+v", res.Result.Regression)
	}
	if recs, _ := filepath.Glob(filepath.Join(dir, "baselines", "*.json")); len(recs) != 0 {
		t.Fatalf("API job wrote baseline records %v", recs)
	}
}
