package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"supersim/internal/bench"
	"supersim/internal/cluster"
	"supersim/internal/core"
	"supersim/internal/dist"
	"supersim/internal/factor"
	"supersim/internal/journal"
	"supersim/internal/perf"
	"supersim/internal/perfmodel"
	"supersim/internal/replay"
	"supersim/internal/sched"
	"supersim/internal/server"
	"supersim/internal/trace"
)

// prober measures single layers from outside, by timing calls into their
// exported functions inside spans. Every probe runs on the workload's own
// spec, so a traced run says what each layer costs for that workload.
type prober struct {
	tr   *tracer
	env  *runEnv
	reps int                // repetitions of a probe; the median is reported
	out  map[string]float64 // metric name → value
}

// probeReps picks how often to repeat the probes of a spec: five times
// for the small DAGs, once for a 117k-task one.
func probeReps(tasks int) int { return max(1, min(5, 200_000/max(tasks, 1))) }

// timed runs f reps times, each in its own span, and returns the median
// duration.
func (p *prober) timed(name, layer string, reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		sp := p.tr.start(name, layer, int64(i), 0)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		p.tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func noop(*sched.Ctx) {}

// insertOps inserts the op stream with the given task body; the shape of
// every scheduler run the probes time.
func insertOps(rt sched.Runtime, ops []factor.Op, body func(class string) sched.TaskFunc) error {
	for i := range ops {
		op := ops[i]
		if err := rt.Insert(&sched.Task{
			Class: string(op.Class), Label: op.Label(), Args: op.SchedArgs(), Priority: op.Priority,
			Func: body(string(op.Class)),
		}); err != nil {
			return err
		}
	}
	return nil
}

// schedRun is one Insert+Barrier pass over ops on a fresh runtime; insert
// is the time of the insertion loop alone.
type schedRun struct {
	insert, total time.Duration
	makespan      float64
	counters      perf.Snapshot
}

// runScheduler times Insert+Barrier. With a model the bodies go through
// the simulator and its Task Execution Queue (what bench.Simulated does,
// assembled here so the perf counters can be attached); without one they
// are no-ops and only the scheduler works.
func runScheduler(spec bench.Spec, ops []factor.Op, model core.DurationModel) (schedRun, error) {
	var run schedRun
	rt, err := bench.NewRuntime(spec)
	if err != nil {
		return run, err
	}
	body := func(string) sched.TaskFunc { return noop }
	var counters perf.Counters
	var sim *core.Simulator
	if model != nil {
		if sp, ok := rt.(interface{ SetPerf(*perf.Counters) }); ok {
			sp.SetPerf(&counters)
		}
		sim = core.NewSimulator(rt, "probe", core.WithWaitPolicy(spec.Wait), core.WithPerfCounters(&counters))
		sim.Reserve(len(ops))
		body = core.NewTasker(sim, model, spec.Seed+1).SimTask
	}
	t0 := time.Now()
	err = insertOps(rt, ops, body)
	run.insert = time.Since(t0)
	rt.Barrier()
	run.total = time.Since(t0)
	rt.Shutdown()
	if err == nil {
		err = rt.Err()
	}
	if sim != nil {
		run.makespan = sim.Trace().Makespan()
		run.counters = counters.Snapshot()
	}
	return run, err
}

// probeSchedCore fills sched.* and core.*: the scheduler alone under each
// of the three runtimes, then the workload's runtime with simulated
// bodies.
func (p *prober) probeSchedCore(spec bench.Spec, ops []factor.Op) error {
	n := float64(len(ops))
	var ownNoop time.Duration
	for _, s := range []string{"quark", "starpu", "ompss"} {
		rs := spec
		rs.Scheduler = s
		if s != spec.Scheduler {
			rs.Policy = ""
		}
		var inserts []float64
		total, err := p.timed("sched.noop_run."+s, "sched", p.reps, func() error {
			run, err := runScheduler(rs, ops, nil)
			inserts = append(inserts, float64(run.insert))
			return err
		})
		if err != nil {
			return err
		}
		p.out["sched."+s+".noop_run_us_per_task"] = us(total) / n
		if s == spec.Scheduler {
			ownNoop = total
			p.out["sched.noop_run_us_per_task"] = us(total) / n
			p.out["sched.insert_us_per_task"] = median(inserts) / 1e3 / n
		}
	}

	model := bench.FaultModel(spec.Algorithm, libModelNB)
	makespans := map[float64]bool{}
	var last perf.Snapshot
	// One run more than the other probes: a single run cannot show two
	// makespans.
	simTotal, err := p.timed("core.simulated_run", "core", p.reps+1, func() error {
		run, err := runScheduler(spec, ops, model)
		makespans[run.makespan] = true
		last = run.counters
		return err
	})
	if err != nil {
		return err
	}
	p.out["core.sim_extra_us_per_task"] = us(simTotal-ownNoop) / n
	p.out["core.front_parks_per_task"] = last.PerTask(last.FrontParks)
	p.out["core.front_handoffs_per_task"] = last.PerTask(last.FrontHandoffs)
	p.out["core.quiescence_parks_per_task"] = last.PerTask(last.QuiescenceParks)
	p.out["core.spurious_wakeups_per_task"] = last.PerTask(last.SpuriousWakeups)
	p.out["core.makespan_distinct_max"] = float64(len(makespans))
	return nil
}

// probeReplayTrace fills replay.* and trace.* and returns the encoded
// frame for the journal probe's frame-sized write.
func (p *prober) probeReplayTrace(spec bench.Spec, ops []factor.Op) ([]byte, error) {
	n := float64(len(ops))
	var dag *replay.DAG
	capture, err := p.timed("bench.CaptureSpec", "replay", p.reps, func() (err error) {
		dag, err = bench.CaptureSpec(spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	one := spec
	one.Workers = 1
	oneWorker, err := p.timed("sched.noop_run.1worker", "sched", p.reps, func() error {
		_, err := runScheduler(one, ops, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	// CaptureSpec also builds the op stream; take that out before
	// charging the rest to the recorder.
	buildOps := time.Duration(p.out["bench.build_ops_ms"] * 1e6)
	p.out["replay.capture_extra_us_per_task"] = us(capture-buildOps-oneWorker) / n

	var arena *replay.Arena
	d, err := p.timed("replay.BuildArena", "replay", p.reps, func() (err error) {
		arena, err = replay.BuildArena(dag)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.out["replay.build_arena_us_per_task"] = us(d) / n
	if d, err = p.timed("replay.DAG.Validate", "replay", p.reps, dag.Validate); err != nil {
		return nil, err
	}
	p.out["replay.validate_ms"] = ms(d)
	var frame []byte
	d, _ = p.timed("replay.Arena.Encode", "replay", p.reps, func() error { frame = arena.Encode(); return nil })
	p.out["replay.encode_ms"] = ms(d)
	p.out["replay.frame_bytes"] = float64(len(frame))
	var loaded *replay.Arena
	if d, err = p.timed("replay.Load", "replay", p.reps, func() (err error) { loaded, err = replay.Load(frame); return err }); err != nil {
		return nil, err
	}
	p.out["replay.load_ms"] = ms(d)
	if d, err = p.timed("replay.Decode", "replay", p.reps, func() error { _, err := replay.Decode(frame); return err }); err != nil {
		return nil, err
	}
	p.out["replay.decode_ms"] = ms(d)
	var pointer *replay.DAG
	d, _ = p.timed("replay.Arena.DAG", "replay", p.reps, func() error { pointer = loaded.DAG(); return nil })
	p.out["replay.arena_to_dag_ms"] = ms(d)

	opt := replay.Options{
		Workers: spec.Workers, Model: jitterModel{bench.FaultModel(spec.Algorithm, libModelNB)},
		Seed: bench.ReplicaSeed(p.env.seed, spec.NT, 0), IgnorePriorities: bench.ReplayIgnoresPriorities(spec),
	}
	var tr *trace.Trace
	runs := p.reps + 2 // the cheapest probes: a few more for a steadier median
	for _, v := range []struct {
		metric, span string
		parallelism  int
		run          func(replay.Options) (*trace.Trace, error)
	}{
		{"replay.run_serial_ns_per_task", "replay.RunArena", 0, func(o replay.Options) (*trace.Trace, error) { return replay.RunArena(loaded, o) }},
		{"replay.run_pointer_ns_per_task", "replay.Run", 0, func(o replay.Options) (*trace.Trace, error) { return replay.Run(pointer, o) }},
		{"replay.run_pdes1_ns_per_task", "replay.RunArena.pdes1", 1, func(o replay.Options) (*trace.Trace, error) { return replay.RunArena(loaded, o) }},
		{"replay.run_pdes4_ns_per_task", "replay.RunArena.pdes4", 4, func(o replay.Options) (*trace.Trace, error) { return replay.RunArena(loaded, o) }},
	} {
		o := opt
		o.Parallelism = v.parallelism
		d, err := p.timed(v.span, "replay", runs, func() error {
			out, err := v.run(o)
			if v.parallelism == 0 {
				tr = out
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		p.out[v.metric] = float64(d) / n
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if _, err := replay.RunArena(loaded, opt); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	p.out["replay.allocs_per_run"] = float64(m1.Mallocs-m0.Mallocs) / float64(runs)

	events := float64(len(tr.Events))
	d, _ = p.timed("trace.Fingerprint", "trace", runs, func() error { tr.Fingerprint(); return nil })
	p.out["trace.fingerprint_ns_per_event"] = float64(d) / events
	d, _ = p.timed("trace.Validate", "trace", p.reps, func() error { tr.Validate(); return nil })
	p.out["trace.validate_ms"] = ms(d)
	if d, err = p.timed("trace.WriteJSON", "trace", p.reps, func() error { return tr.WriteJSON(io.Discard) }); err != nil {
		return nil, err
	}
	p.out["trace.write_json_ms"] = ms(d)
	if d, err = p.timed("trace.WriteSVG", "trace", p.reps, func() error { return tr.WriteSVG(io.Discard, trace.SVGOptions{}) }); err != nil {
		return nil, err
	}
	p.out["trace.write_svg_ms"] = ms(d)
	return frame, nil
}

// probeJournal fills journal.*; frame sizes the atomic file write like
// the capture cache's write-through.
func (p *prober) probeJournal(frame []byte) error {
	const appends, recovered = 64, 1000
	type rec struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	dir := p.env.scratch.dir()
	j, _, err := journal.Open(dir)
	if err != nil {
		return err
	}
	d, err := p.timed("journal.AppendSync", "journal", appends, func() error {
		_, err := j.AppendSync("accept", rec{"j-000001", "queued"})
		return err
	})
	if err != nil {
		return err
	}
	p.out["journal.append_sync_us"] = us(d)
	if d, err = p.timed("journal.Append", "journal", appends, func() error {
		_, err := j.Append("finish", rec{"j-000001", "done"})
		return err
	}); err != nil {
		return err
	}
	p.out["journal.append_async_us"] = us(d)
	path := dir + "/probe.dag"
	if d, err = p.timed("journal.WriteFileAtomic", "journal", 5, func() error {
		return journal.WriteFileAtomic(path, frame, 0o644)
	}); err != nil {
		return err
	}
	p.out["journal.write_file_atomic_ms"] = ms(d)
	// A snapshot the size a serving simd compacts: its 256 retained jobs.
	state := make([]rec, 256)
	for i := range state {
		state[i] = rec{fmt.Sprintf("j-%06d", i), "done"}
	}
	if d, err = p.timed("journal.Compact", "journal", 5, func() error { return j.Compact(state) }); err != nil {
		return err
	}
	p.out["journal.compact_ms"] = ms(d)
	for i := 0; i < recovered; i++ {
		if _, err := j.Append("finish", rec{fmt.Sprintf("j-%06d", i), "done"}); err != nil {
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	if d, err = p.timed("journal.Open", "journal", 5, func() error {
		j, got, err := journal.Open(dir)
		if err != nil {
			return err
		}
		if len(got.Records) != recovered {
			return fmt.Errorf("recovered %d records, wrote %d", len(got.Records), recovered)
		}
		return j.Close()
	}); err != nil {
		return err
	}
	p.out["journal.open_recover_ms"] = ms(d)
	return nil
}

// probeBench fills bench.*: op-stream construction at the workload's
// shape and at a production tile size, and the sweep driver.
func (p *prober) probeBench(spec bench.Spec) error {
	d, err := p.timed("bench.Ops", "bench", p.reps, func() error { _, err := bench.Ops(spec); return err })
	if err != nil {
		return err
	}
	p.out["bench.build_ops_ms"] = ms(d)
	// nt stays small here: at nb=256 the (nt·nb)² input matrix, which
	// bench.Ops generates and discards, is the whole cost.
	big := bench.Spec{Algorithm: "cholesky", Scheduler: "quark", NT: 8, NB: 256, Workers: 8, Seed: spec.Seed}
	if d, err = p.timed("bench.Ops.nb256", "bench", 3, func() error { _, err := bench.Ops(big); return err }); err != nil {
		return err
	}
	p.out["bench.build_ops_nb256_ms"] = ms(d)

	s := sweepSpec(p.env.seed)
	sweep := func(shards int) (bench.SweepWall, error) {
		var walls []bench.SweepWall
		_, err := p.timed(fmt.Sprintf("bench.SweepParallel.shards%d", shards), "bench", 3, func() error {
			_, w, err := bench.SweepParallel(s.Scheduler, s.Algorithm, s.NB, s.MaxNT, s.Workers, bench.SweepOptions{
				Reps: s.Reps, Shards: shards, Model: core.FixedModel(1e-3), Seed: s.Seed,
			})
			walls = append(walls, w)
			return err
		})
		if err != nil {
			return bench.SweepWall{}, err
		}
		var capture, replay []float64
		for _, w := range walls {
			capture = append(capture, float64(w.Capture))
			replay = append(replay, float64(w.Replay))
		}
		return bench.SweepWall{Capture: time.Duration(median(capture)), Replay: time.Duration(median(replay))}, nil
	}
	all, err := sweep(0)
	if err != nil {
		return err
	}
	one, err := sweep(1)
	if err != nil {
		return err
	}
	p.out["bench.sweep_capture_ms"] = ms(all.Capture)
	p.out["bench.sweep_replay_ms"] = ms(all.Replay)
	p.out["bench.sweep_shard_speedup"] = float64(one.Replay) / float64(all.Replay)
	return nil
}

// probePerfmodel fills perfmodel.*: the paper's accuracy claim at a size
// the pure-Go kernels run in milliseconds. The error depends on host
// noise during the measured runs, so it is reported, never gated.
func (p *prober) probePerfmodel() error {
	const pairs = 3
	spec := bench.Spec{Algorithm: "cholesky", Scheduler: "quark", NT: 8, NB: 48, Workers: 4, Seed: p.env.seed}
	_, samples, err := bench.Measured(spec)
	if err != nil {
		return err
	}
	var model *perfmodel.Model
	d, err := p.timed("perfmodel.Fit", "perfmodel", 3, func() (err error) {
		model, _, err = perfmodel.Fit(samples, dist.PaperFamilies)
		return err
	})
	if err != nil {
		return err
	}
	p.out["perfmodel.fit_ms"] = ms(d)
	var errs []float64
	for i := 0; i < pairs; i++ {
		real, _, err := bench.Measured(spec)
		if err != nil {
			return err
		}
		sim, err := bench.Simulated(spec, model)
		if err != nil {
			return err
		}
		errs = append(errs, bench.ErrPct(sim.Makespan, real.Makespan))
	}
	p.out["perfmodel.sim_vs_measured_err_pct"] = median(errs)
	return nil
}

// probeRing fills cluster.ring_owner_ns on a two-worker ring.
func (p *prober) probeRing() {
	const lookups = 100_000
	ring := cluster.NewRing(0)
	ring.Add("w1")
	ring.Add("w2")
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("cholesky|quark||%d|32|0", i)
	}
	d, _ := p.timed("cluster.Ring.Owner", "cluster", 3, func() error {
		for i := 0; i < lookups; i++ {
			ring.Owner(keys[i%len(keys)])
		}
		return nil
	})
	p.out["cluster.ring_owner_ns"] = float64(d) / lookups
}

// probeServer fills the server.* and client.* metrics that are calls, not
// traffic: the loopback round trip, a submission with no HTTP at all, the
// job document's encoding and the trace read path. inst must be a booted
// simWorkload whose first key is already cached.
func (p *prober) probeServer(inst *instance, spec server.JobSpec) error {
	c := newAPIClient(inst.node.url)
	defer c.close()
	d, err := p.timed("http_rtt", "client", 200, func() error {
		status, err := c.do(http.MethodGet, "/healthz", nil, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("healthz returned %d", status)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.out["client.http_rtt_us"] = us(d)

	reps := 4 * p.reps
	var job *server.Job
	if d, err = p.timed("server.Submit", "server", reps, func() (err error) {
		if job, err = inst.node.srv.Submit(spec); err != nil {
			return err
		}
		for !terminal(job.Status()) {
			time.Sleep(20 * time.Microsecond)
		}
		if job.Status() != server.StatusDone {
			return fmt.Errorf("direct submission ended %s", job.Status())
		}
		return nil
	}); err != nil {
		return err
	}
	p.out["server.submit_direct_ms"] = ms(d)

	var doc []byte
	if d, err = p.timed("server.view_encode", "server", 10*p.reps, func() (err error) {
		doc, err = json.Marshal(job.View())
		return err
	}); err != nil {
		return err
	}
	p.out["server.view_encode_us"] = us(d)
	p.out["server.view_bytes"] = float64(len(doc))

	if d, err = p.timed("server.trace_fetch", "server", reps, func() error {
		status, err := c.do(http.MethodGet, "/jobs/"+job.ID+"/trace", nil, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("trace fetch returned %d", status)
		}
		return err
	}); err != nil {
		return err
	}
	p.out["server.trace_fetch_ms"] = ms(d)
	return nil
}
