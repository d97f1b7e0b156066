package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"supersim/internal/fault"
	"supersim/internal/journal"
	"supersim/internal/rng"
)

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// stallSpec is a job whose every task stalls the executing worker for the
// given wall time: the standard way these tests pin a pool slot while
// more jobs queue behind it.
func stallSpec(stall time.Duration) JobSpec {
	return JobSpec{
		Algorithm: "cholesky", NT: 2, NB: 8, Workers: 1,
		Fault: &fault.Config{Default: fault.Rates{Stall: 1}, StallWall: stall},
	}
}

// crashChildEnv, when set, turns the test binary into the crash-test
// workload generator: a process that opens a durable server on the given
// data dir, submits jobs, prints "acked <id> <specIndex>" after each
// acknowledged Submit, and then idles until the parent SIGKILLs it.
const crashChildEnv = "SUPERSIM_CRASH_CHILD_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChildMain(dir)
		return
	}
	os.Exit(m.Run())
}

// crashSpecs is the deterministic workload the crash child submits: a mix
// of cached simulate jobs, multi-rep jobs, direct-path jobs and a sweep,
// all small enough to finish quickly on recovery.
func crashSpecs() []JobSpec {
	f := false
	return []JobSpec{
		{Algorithm: "cholesky", NT: 4, NB: 8, Workers: 4, Seed: 1},
		{Algorithm: "qr", NT: 3, NB: 8, Workers: 2, Seed: 2, Reps: 2},
		{Algorithm: "lu", NT: 4, NB: 8, Workers: 4, Seed: 3},
		// One worker: a direct job's makespan is reproducible only where
		// the schedule is, and QUARK at 4 workers has two outcomes under load.
		{Algorithm: "cholesky", NT: 5, NB: 8, Workers: 1, Seed: 4, NoCache: true, Trace: &f},
		{Kind: "sweep", Algorithm: "cholesky", MaxNT: 4, NB: 8, Workers: 2, Seed: 5},
		{Algorithm: "cholesky", NT: 4, NB: 8, Workers: 4, Seed: 6},
		{Algorithm: "qr", NT: 4, NB: 8, Workers: 4, Seed: 7},
		{Algorithm: "lu", NT: 3, NB: 8, Workers: 2, Seed: 8, Reps: 3},
	}
}

func crashChildMain(dir string) {
	srv, err := New(Config{Pool: 2, DataDir: dir})
	if err != nil {
		fmt.Printf("child-error New: %v\n", err)
		os.Exit(1)
	}
	for i, spec := range crashSpecs() {
		job, err := srv.Submit(spec)
		if err != nil {
			fmt.Printf("child-error submit %d: %v\n", i, err)
			os.Exit(1)
		}
		// Submit returned, so the accept record is fsynced: this line is
		// the child's durable-acknowledgement receipt.
		fmt.Printf("acked %s %d\n", job.ID, i)
		// Stagger the load so randomized kill points land mid-submission
		// as well as mid-execution.
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Println("all-submitted")
	// Idle until SIGKILL; jobs keep running meanwhile, so the kill lands
	// at an arbitrary point of the load: some jobs finished, some
	// in flight, some queued.
	select {} //nolint — terminated by the parent's SIGKILL
}

// referenceFingerprints runs every crash spec on a fresh in-memory server
// and returns spec index → fingerprint: the ground truth a recovered
// re-run must reproduce.
func referenceFingerprints(t *testing.T) map[int]string {
	t.Helper()
	srv := newTestServer(t, Config{Pool: 2})
	ref := make(map[int]string)
	for i, spec := range crashSpecs() {
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatalf("reference submit %d: %v", i, err)
		}
		if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
			t.Fatalf("reference job %d finished %q: %s", i, st, job.view().Error)
		}
		fp := job.view().Result.Fingerprint
		if fp == "" {
			t.Fatalf("reference job %d has no fingerprint", i)
		}
		ref[i] = fp
	}
	return ref
}

// TestCrashRecoveryExactlyOnce is the SIGKILL property test pinning the
// PR's durability criterion: a child process submits the workload against
// a journaled store and is SIGKILLed at a randomized point mid-load; a
// recovered server on the same data dir must finish every acknowledged
// job exactly once with a fingerprint identical to a reference run.
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceFingerprints(t)
	// The kill point is randomized per round (seeded from the wall clock,
	// logged for reproduction): early kills land mid-submission, late
	// kills land with most jobs finished.
	seed := uint64(time.Now().UnixNano()) //simlint:allow vclock — property-test seed
	t.Logf("kill-point seed %d", seed)
	r := rng.New(seed)

	for round := 0; round < 3; round++ {
		dir := t.TempDir()
		delay := time.Duration(r.Intn(120)) * time.Millisecond

		cmd := exec.Command(exe, "-test.run=TestMain")
		cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}

		// Collect acknowledgement receipts until the kill fires.
		type ack struct {
			id   string
			spec int
		}
		acksCh := make(chan ack, 64)
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				var a ack
				if n, _ := fmt.Sscanf(sc.Text(), "acked %s %d", &a.id, &a.spec); n == 2 {
					acksCh <- a
				}
			}
			close(acksCh)
		}()

		time.Sleep(delay)
		if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatalf("round %d: kill: %v", round, err)
		}
		_ = cmd.Wait()
		var acked []ack
		for a := range acksCh { // drained: the pipe closed with the process
			acked = append(acked, a)
		}
		t.Logf("round %d: killed after %v with %d acked jobs", round, delay, len(acked))

		// Recover on the same data dir and let every job finish.
		srv, err := New(Config{Pool: 2, DataDir: dir})
		if err != nil {
			t.Fatalf("round %d: recovery New: %v", round, err)
		}
		for _, a := range acked {
			job, ok := srv.Job(a.id)
			if !ok {
				t.Fatalf("round %d: acked job %s lost by recovery", round, a.id)
			}
			if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
				t.Errorf("round %d: job %s finished %q: %s", round, a.id, st, job.view().Error)
				continue
			}
			if fp := job.view().Result.Fingerprint; fp != ref[a.spec] {
				t.Errorf("round %d: job %s (spec %d) recovered with fingerprint %s, reference %s",
					round, a.id, a.spec, fp, ref[a.spec])
			}
		}
		// Exactly once: each acked ID appears once in the recovered set —
		// no duplicate resurrection of a job that already finished.
		seen := map[string]int{}
		for _, j := range srv.Jobs() {
			seen[j.ID]++
		}
		for _, a := range acked {
			if seen[a.id] != 1 {
				t.Errorf("round %d: job %s recovered %d times, want exactly once", round, a.id, seen[a.id])
			}
		}
		shutdownNow(t, srv)
	}
}

func shutdownNow(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := contextWithTimeout(30 * time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDrainRequeuesIntoJournal pins the SIGTERM/SIGKILL convergence
// satellite: a graceful drain journals still-queued jobs as requeued, and
// the next boot re-runs them exactly as it would after a crash.
func TestDrainRequeuesIntoJournal(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Pool: 1, QueueDepth: 8, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only pool slot so the next submissions stay queued.
	occupant := submitStallJob(t, srv, 40*time.Millisecond)
	waitStatus(t, occupant, StatusRunning, 5*time.Second)
	q1, err := srv.Submit(JobSpec{Algorithm: "cholesky", NT: 4, NB: 8, Workers: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := srv.Submit(JobSpec{Algorithm: "qr", NT: 3, NB: 8, Workers: 2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	shutdownNow(t, srv)
	if st := q1.Status(); st != StatusRequeued {
		t.Fatalf("drained job %s status %q, want requeued", q1.ID, st)
	}
	if st := occupant.Status(); st != StatusDone {
		t.Fatalf("in-flight job finished %q, want done", st)
	}

	srv2, err := New(Config{Pool: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, srv2)
	if requeued, restored := srv2.Recovered(); requeued != 2 || restored != 1 {
		t.Fatalf("recovery found %d requeued / %d restored, want 2 / 1", requeued, restored)
	}
	for _, id := range []string{q1.ID, q2.ID} {
		job, ok := srv2.Job(id)
		if !ok {
			t.Fatalf("drained job %s lost across restart", id)
		}
		if !job.view().Recovered {
			t.Errorf("job %s not marked recovered", id)
		}
		if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
			t.Errorf("recovered job %s finished %q: %s", id, st, job.view().Error)
		}
	}
	// A recovered server mints fresh IDs past the recovered ones.
	fresh, err := srv2.Submit(JobSpec{Algorithm: "cholesky", NT: 2, NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == occupant.ID || fresh.ID == q1.ID || fresh.ID == q2.ID {
		t.Fatalf("recovered server re-minted ID %s", fresh.ID)
	}
}

// TestRestartRestoresFinishedJobs checks the quiet path: a clean
// shutdown's results (fingerprints included) survive into the next boot
// without re-running anything.
func TestRestartRestoresFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Pool: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(JobSpec{Algorithm: "cholesky", NT: 4, NB: 8, Workers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
		t.Fatalf("job finished %q", st)
	}
	fp := job.view().Result.Fingerprint
	shutdownNow(t, srv)

	srv2, err := New(Config{Pool: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, srv2)
	got, ok := srv2.Job(job.ID)
	if !ok {
		t.Fatalf("finished job %s lost across restart", job.ID)
	}
	v := got.view()
	if v.Status != StatusDone || v.Result == nil || v.Result.Fingerprint != fp {
		t.Fatalf("restored job: status=%q result=%+v, want done with fingerprint %s", v.Status, v.Result, fp)
	}
	m := srv2.Metrics()
	if !m.Store.Durable || m.Store.Restored != 1 {
		t.Fatalf("store metrics after restore: %+v", m.Store)
	}
}

func submitStallJob(t *testing.T, srv *Server, stall time.Duration) *Job {
	t.Helper()
	job, err := srv.Submit(stallSpec(stall))
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// copyJournal copies a data dir's journal files (not its frames or
// baselines) into a fresh directory and returns it. Taken from a live
// server it is the image a SIGKILL at that instant would leave: every
// record is one write(2) and accepts are fsynced before Submit returns.
func copyJournal(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	for _, name := range []string{"log.jsonl", "snapshot.json"} {
		raw, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatalf("copying journal: %v", err)
		}
		if err := os.WriteFile(filepath.Join(to, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// logData returns the type and payload of every record in a live data
// dir's log, as written.
func logData(t *testing.T, dir string) (types []string, data []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "log.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var env struct {
			Rec struct {
				Type string          `json:"type"`
				Data json.RawMessage `json:"data"`
			} `json:"rec"`
		}
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		types = append(types, env.Rec.Type)
		data = append(data, string(env.Rec.Data))
	}
	return types, data
}

// TestCronFiringSourceSurvivesCrash: a cron firing killed between its
// accept and its finish is re-run as a cron firing — the accept record
// carries the source, so the re-run is served with it and diffed against
// the template's baseline like any other firing.
func TestCronFiringSourceSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Config{Pool: 1, DataDir: dir})
	occupant := submitStallJob(t, srv, 40*time.Millisecond)
	waitStatus(t, occupant, StatusRunning, 5*time.Second)
	firing, err := srv.submitAs(srv.defaultTenant(), diskSpec(5), "cron:c-000001", clusterHints{})
	if err != nil {
		t.Fatal(err)
	}
	crashed := copyJournal(t, dir) // accepted, still queued behind the occupant

	srv2 := newTestServer(t, Config{Pool: 1, DataDir: crashed})
	job, ok := srv2.Job(firing.ID)
	if !ok {
		t.Fatalf("cron firing %s lost by recovery", firing.ID)
	}
	if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
		t.Fatalf("recovered firing finished %q: %s", st, job.view().Error)
	}
	v := job.view()
	if !v.Recovered || v.Source != "cron:c-000001" {
		t.Fatalf("recovered firing: recovered=%v source=%q, want true and cron:c-000001", v.Recovered, v.Source)
	}
	if v.Result.Regression == nil {
		t.Fatal("recovered firing carries no regression report: it did not run as a cron firing")
	}
	if m := srv2.Metrics(); m.Regression.Baselines != 1 {
		t.Fatalf("regression metrics %+v, want the re-run to have pinned the baseline", m.Regression)
	}
}

// TestRecordFormatHeld pins the on-disk format of the two records every
// API job writes: their payloads are byte-identical to what the commit
// before the shared store wrote for the same job (constants taken from
// its simd binary).
func TestRecordFormatHeld(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the finish record holds makespans sampled on amd64")
	}
	const (
		accept = `{"id":"j-000001","tenant":"default","spec":{"kind":"simulate","algorithm":"cholesky","scheduler":"quark","nt":4,"nb":8,"workers":4,"seed":1,"reps":1}}`
		finish = `{"id":"j-000001","status":"done","cache":"miss","attempts":1,"fingerprint":"28ce3c87f055e78b","result":{"makespan":0.010000000000000002,"gflops":0.0010922666666666663,"num_tasks":20,"makespans":[0.010000000000000002],"min_makespan":0.010000000000000002,"mean_makespan":0.010000000000000002,"fingerprint":"28ce3c87f055e78b"}}`
	)
	dir := t.TempDir()
	srv := newTestServer(t, Config{Pool: 1, DataDir: dir})
	job, err := srv.Submit(JobSpec{Algorithm: "cholesky", NT: 4, NB: 8, Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFinished(t, job, 30*time.Second)
	// The status turns done just before the finish record is appended.
	var types, data []string
	for deadline := time.Now().Add(5 * time.Second); len(data) < 2 && time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		types, data = logData(t, dir)
	}
	if len(data) != 2 || types[0] != recAccept || types[1] != recFinish {
		t.Fatalf("log holds %v, want one accept and one finish", types)
	}
	if data[0] != accept {
		t.Errorf("accept record\n got %s\nwant %s", data[0], accept)
	}
	if data[1] != finish {
		t.Errorf("finish record\n got %s\nwant %s", data[1], finish)
	}
}

// TestParentDataDirRecovers opens a data dir written by the simd binary of
// the commit before the shared store — a snapshot plus a log with accepts,
// finishes, a cron and a drain mark, copied mid-drain — and requires the
// jobs, statuses and fingerprints that binary itself recovered from it
// (testdata/parent-simd/expected.json).
func TestParentDataDirRecovers(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the fixture's fingerprints are from amd64")
	}
	var want []struct {
		ID, Status, Tenant, Error, Fingerprint string
		Recovered                              bool
	}
	raw, err := os.ReadFile("testdata/parent-simd/expected.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{Pool: 2, DataDir: copyJournal(t, "testdata/parent-simd")})
	if requeued, restored := srv.Recovered(); requeued != 3 || restored != 5 {
		t.Fatalf("recovery found %d requeued / %d restored, want 3 / 5", requeued, restored)
	}
	jobs := srv.Jobs()
	if len(jobs) != len(want) {
		t.Fatalf("recovered %d jobs, want %d", len(jobs), len(want))
	}
	for i, w := range want {
		job := jobs[i]
		waitFinished(t, job, 30*time.Second)
		v := job.view()
		fp := ""
		if v.Result != nil {
			fp = v.Result.Fingerprint
		}
		if v.ID != w.ID || v.Status != w.Status || v.Tenant != w.Tenant || v.Error != w.Error || fp != w.Fingerprint || v.Recovered != w.Recovered {
			t.Errorf("job %d: id=%s status=%s tenant=%s error=%q fingerprint=%s recovered=%v, parent recovered %+v",
				i, v.ID, v.Status, v.Tenant, v.Error, fp, v.Recovered, w)
		}
	}
	crons := srv.Crons()
	if len(crons) != 1 || crons[0].ID != "c-000001" || crons[0].Name != "nightly" || crons[0].EveryMS != 3600000 {
		t.Fatalf("recovered crons %+v, want the fixture's c-000001", crons)
	}
	// Both counters continue past everything the fixture holds.
	fresh, err := srv.Submit(JobSpec{Algorithm: "cholesky", NT: 2, NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	cron, err := srv.AddCron("default", CronSpec{EveryMS: 3600000, Spec: JobSpec{Algorithm: "cholesky", NT: 2, NB: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "j-000009" || cron.ID != "c-000002" {
		t.Fatalf("minted %s and %s after recovery, want j-000009 and c-000002", fresh.ID, cron.ID)
	}
}

// TestParentExecutorFieldRecovers: a data dir journaled before the
// service dropped "parallelism" still recovers. Journal records decode
// leniently, so an accepted job whose spec asked for the PDES executor is
// requeued, runs on the greedy replay every job now gets, and reports the
// fingerprint of the same spec without the field.
func TestParentExecutorFieldRecovers(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendSync(recAccept, json.RawMessage(`{"id":"j-000001","tenant":"default","spec":{"kind":"simulate",`+
		`"algorithm":"cholesky","scheduler":"quark","nt":6,"nb":8,"workers":4,"seed":5,"reps":1,"parallelism":2}}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	srv := newTestServer(t, Config{Pool: 1, DataDir: dir})
	if requeued, restored := srv.Recovered(); requeued != 1 || restored != 0 {
		t.Fatalf("recovery found %d requeued / %d restored, want 1 / 0", requeued, restored)
	}
	recovered, ok := srv.Job("j-000001")
	if !ok {
		t.Fatal("parent record lost by recovery")
	}
	fresh, err := srv.Submit(JobSpec{Algorithm: "cholesky", NT: 6, NB: 8, Workers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var fps [2]string
	for i, job := range []*Job{recovered, fresh} {
		if st := waitFinished(t, job, 30*time.Second); st != StatusDone {
			t.Fatalf("job %s finished %q: %s", job.ID, st, job.view().Error)
		}
		fps[i] = job.view().Result.Fingerprint
	}
	if fps[0] == "" || fps[0] != fps[1] {
		t.Fatalf("recovered job's fingerprint %q, the same spec without parallelism %q", fps[0], fps[1])
	}
}

// TestRetentionEvictsOldestFinished: the store bounds the retained jobs
// with or without a journal, and what it evicts leaves the server too.
func TestRetentionEvictsOldestFinished(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		srv := newTestServer(t, Config{Pool: 2, RetainJobs: 3, DataDir: dir})
		var ids []string
		for i := 0; i < 6; i++ {
			job, err := srv.Submit(JobSpec{Algorithm: "cholesky", NT: 2, NB: 8, Seed: uint64(i)})
			if err != nil {
				t.Fatal(err)
			}
			waitFinished(t, job, 30*time.Second)
			ids = append(ids, job.ID)
		}
		jobs := srv.Jobs()
		if len(jobs) != 3 || jobs[0].ID != ids[3] || jobs[2].ID != ids[5] {
			t.Fatalf("durable=%v: retained %d jobs starting at %s, want the newest 3 of %v", dir != "", len(jobs), jobs[0].ID, ids)
		}
		if _, ok := srv.Job(ids[0]); ok {
			t.Fatalf("durable=%v: evicted job %s is still served", dir != "", ids[0])
		}
	}
}
