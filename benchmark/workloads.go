package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"supersim/internal/bench"
	"supersim/internal/core"
	"supersim/internal/replay"
	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/server"
)

// opResult is one checked operation as its caller saw it.
type opResult struct {
	// err is a failed operation or a failed correctness check; it counts
	// in error_rate. invalid means the workload no longer measures what
	// its name says (a wrong cache disposition) and aborts the run.
	err     error
	invalid error

	latency  time.Duration // call → return, or POST sent → terminal body read
	accept   time.Duration // POST sent → 202 read; 0 for library calls
	simTasks int           // tasks in the simulated DAG × replicas

	// Service operations only.
	polls   int
	queueNS int64
	runNS   int64
	parts   int
}

// instance is one booted, pre-warmed copy of a workload.
type instance struct {
	// op performs operation number seq on behalf of one closed-loop
	// caller. seq is shared by all callers and never repeats.
	op func(caller int, seq int64, tr *tracer) opResult
	// close stops every server and goroutine the set-up started.
	close func()
	// callers is the closed-loop population: 1 for library workloads,
	// min(2, nproc) keep-alive clients for service workloads.
	callers int
	// fixedOps, when set, makes the measured window that many operations
	// instead of a time: serve-miss, where every key can miss only once,
	// and cluster-sweep, where the coordinator keeps every dispatch, so
	// that the live heap would follow the throughput.
	fixedOps int
	// warmed says set-up already ran the warm-up, on keys of its own.
	warmed bool
	// metricsURL is the server or coordinator whose /metrics the traced
	// run reads before and after its window ("" for library workloads).
	metricsURL string
	// clustered marks metricsURL as a coordinator.
	clustered bool
	// node is the simd behind a simulate workload, for the probes that
	// call the server without HTTP (nil otherwise).
	node *simdNode
	// probe is the spec the layer probes run on: the workload's own.
	probe bench.Spec
	// wantCache is the cache disposition every simulate op must report
	// from now on; set-up changes it once pre-warming is over.
	wantCache string

	// seq numbers the operations; set-up's own operations advance it, so
	// a cycle through the keys carries on where pre-warming stopped.
	seq atomic.Int64
}

// runEnv is what a set-up may draw on.
type runEnv struct {
	seed    uint64
	seconds int
	scratch *scratch
}

// workloadDef is one named workload. Names are fixed: later issues cite
// them.
type workloadDef struct {
	name  string
	why   string
	setup func(env *runEnv) (*instance, error)
}

var workloads = []workloadDef{
	{"lib-direct", "The paper's own path: bench.Simulated through the real scheduler and Task Execution Queue; replay, server, journal and cluster do no work.", setupLibDirect},
	{"replay-large", "replay.RunArena plus Trace.Fingerprint on a pre-loaded 117k-task frame: replay and trace dominate, scheduler cost is paid once in set-up.", setupReplayLarge},
	{"serve-hit", "Four pre-warmed keys on a journaled simd: replay is ~0.15 ms, so admission, journal fsync, queue, encode and HTTP dominate.", setupServeHit},
	{"serve-disk", "96 captured keys cycled against a 64-entry memory cache: every request misses memory and loads its frame from disk.", setupServeDisk},
	{"serve-miss", "Distinct keys in a seeded order, each captured through the real scheduler and written through to disk: the write side of the cache.", setupServeMiss},
	{"serve-sweep", "bench.SweepParallel behind the jobs API: 15 captures and 120 replays per request, CPU-bound, service overhead negligible.", setupServeSweep},
	{"cluster-sweep", "The serve-sweep request sent to a coordinator fronting two workers: replica fan-out, merge and the tracker tick on top of the same work.", setupClusterSweep},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func serviceCallers() int { return min(2, runtime.NumCPU()) }

// schedPolicy is one scheduler configuration of a cache key.
type schedPolicy struct{ scheduler, policy string }

// keySchedulers are the six scheduler configurations serve-disk and
// serve-miss spread their keys over.
var keySchedulers = []schedPolicy{
	{"quark", ""}, {"ompss", ""}, {"starpu", ""}, {"starpu", "prio"}, {"starpu", "ws"}, {"starpu", "dm"},
}

// --- lib-direct ---

const (
	libWorkers = 8
	// libNB keeps the input matrices bench.Simulated generates and throws
	// away on every call small: the op is about scheduling, not about
	// filling (nt·nb)² floats.
	libNB = 8
	// libModelNB sizes the class durations (bench.FaultModel's flop
	// counts), independently of the matrices.
	libModelNB = 200
	// libMakespanTol is how far an op's makespan may sit from the set-up
	// reference: QUARK's direct makespans are not run-to-run identical
	// under a class model (README, sizing findings).
	libMakespanTol = 0.02
)

func setupLibDirect(env *runEnv) (*instance, error) {
	type libSpec struct {
		spec     bench.Spec
		model    core.ClassMap
		tasks    int
		makespan float64
	}
	var specs []libSpec
	for _, shape := range []struct {
		alg string
		nt  int
	}{{"cholesky", 24}, {"qr", 16}} {
		for _, s := range []string{"quark", "starpu", "ompss"} {
			spec := bench.Spec{Algorithm: shape.alg, Scheduler: s, NT: shape.nt, NB: libNB, Workers: libWorkers, Seed: env.seed}
			ops, err := bench.Ops(spec)
			if err != nil {
				return nil, err
			}
			model := bench.FaultModel(shape.alg, libModelNB)
			ref, err := bench.Simulated(spec, model)
			if err != nil {
				return nil, err
			}
			if ref.Err != nil {
				return nil, fmt.Errorf("reference run %s/%s: %w", shape.alg, s, ref.Err)
			}
			specs = append(specs, libSpec{spec, model, len(ops), ref.Makespan})
		}
	}
	// The rotation starts where the seed says; every spec still comes up
	// once in six ops.
	start := int64(rng.New(env.seed).Intn(len(specs)))
	op := func(_ int, seq int64, tr *tracer) opResult {
		s := &specs[(start+seq)%int64(len(specs))]
		sp := tr.start("bench.Simulated", "core", seq, 0)
		t0 := time.Now()
		res, err := bench.Simulated(s.spec, s.model)
		r := opResult{latency: time.Since(t0), simTasks: s.tasks}
		tr.end(sp)
		switch {
		case err != nil:
			r.err = err
		case res.Err != nil:
			r.err = res.Err
		case res.NumTasks != s.tasks:
			r.err = fmt.Errorf("trace has %d events, op stream has %d tasks", res.NumTasks, s.tasks)
		case len(res.Trace.Validate()) != 0:
			r.err = fmt.Errorf("trace fails Validate: %d violations", len(res.Trace.Validate()))
		case math.Abs(res.Makespan-s.makespan) > libMakespanTol*s.makespan:
			r.err = fmt.Errorf("makespan %g is more than %g off reference %g", res.Makespan, libMakespanTol, s.makespan)
		}
		return r
	}
	return &instance{op: op, close: func() {}, callers: 1, probe: specs[0].spec}, nil
}

// --- replay-large ---

const (
	replayNT      = 88 // cholesky nt=88: 117 480 tasks
	replayWorkers = 48
	replaySeeds   = 4
)

// jitterModel is the benchmark's own stochastic duration model: each
// class's nominal cost, scaled by a uniform ±10 % drawn from the stream
// replay hands it. Sampling makes every replica seed a different
// schedule, so the fingerprint check is not checking a constant.
type jitterModel struct{ base core.ClassMap }

func (m jitterModel) Duration(class string, _ sched.WorkerKind, src *rng.Source) float64 {
	return m.base[class] * (0.9 + 0.2*src.Float64())
}

func setupReplayLarge(env *runEnv) (*instance, error) {
	spec := bench.Spec{Algorithm: "cholesky", Scheduler: "quark", NT: replayNT, NB: 4, Workers: replayWorkers, Seed: env.seed}
	dag, err := bench.CaptureSpec(spec)
	if err != nil {
		return nil, err
	}
	built, err := dag.Arena()
	if err != nil {
		return nil, err
	}
	// The measured op replays the frame as a restarted server would hold
	// it — encoded, then zero-copy loaded — while the reference below
	// walks the captured pointer DAG.
	arena, err := replay.Load(built.Encode())
	if err != nil {
		return nil, err
	}
	model := jitterModel{bench.FaultModel("cholesky", libModelNB)}
	opts := make([]replay.Options, replaySeeds)
	refs := make([]uint64, replaySeeds)
	for i := range opts {
		opts[i] = replay.Options{Workers: replayWorkers, Model: model, Seed: bench.ReplicaSeed(env.seed, replayNT, i)}
		tr, err := replay.Run(dag, opts[i])
		if err != nil {
			return nil, err
		}
		refs[i] = tr.Fingerprint()
	}
	tasks := arena.NumTasks()
	op := func(_ int, seq int64, tr *tracer) opResult {
		i := seq % replaySeeds
		root := tr.start("op", "client", seq, 0)
		t0 := time.Now()
		sp := tr.start("replay.RunArena", "replay", seq, root)
		out, err := replay.RunArena(arena, opts[i])
		tr.end(sp)
		if err != nil {
			tr.end(root)
			return opResult{err: err, latency: time.Since(t0)}
		}
		sp = tr.start("trace.Fingerprint", "trace", seq, root)
		fp := out.Fingerprint()
		tr.end(sp)
		r := opResult{latency: time.Since(t0), simTasks: tasks}
		tr.end(root)
		if len(out.Events) != tasks {
			r.err = fmt.Errorf("replay produced %d events for %d tasks", len(out.Events), tasks)
		} else if fp != refs[i] {
			r.err = fmt.Errorf("fingerprint %016x differs from pointer-DAG reference %016x", fp, refs[i])
		}
		return r
	}
	return &instance{op: op, close: func() {}, callers: 1, probe: spec}, nil
}

// --- the simd workloads ---

// simKey is one capture-cache key of a simulate workload with the
// fingerprint every request for it must return.
type simKey struct {
	spec server.JobSpec
	ref  string
}

// simReference computes a simulate job's expected fingerprint without the
// server: a programmatic capture replayed from the pointer DAG under the
// service's default model (1 ms per kernel).
func simReference(spec server.JobSpec) (string, error) {
	bspec := bench.Spec{Algorithm: spec.Algorithm, Scheduler: spec.Scheduler, Policy: spec.Policy, NT: spec.NT, NB: spec.NB, Workers: spec.Workers}
	dag, err := bench.CaptureSpec(bspec)
	if err != nil {
		return "", err
	}
	tr, err := replay.Run(dag, replay.Options{
		Workers:          spec.Workers,
		Model:            core.FixedModel(1e-3),
		Seed:             bench.ReplicaSeed(spec.Seed, spec.NT, 0),
		IgnorePriorities: bench.ReplayIgnoresPriorities(bspec),
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", tr.Fingerprint()), nil
}

// service is a booted simd (or cluster) with one API client per caller.
type service struct {
	clients []*apiClient
	stop    func()
}

func newService(base string, stop func(), callers int) *service {
	s := &service{stop: stop}
	for i := 0; i < callers; i++ {
		s.clients = append(s.clients, newAPIClient(base))
	}
	return s
}

func (s *service) close() {
	for _, c := range s.clients {
		c.close()
	}
	s.stop()
}

// submit runs one job and applies the checks every service op shares:
// terminal status done, the expected cache disposition, the reference
// fingerprint.
func (s *service) submit(caller int, seq int64, tr *tracer, spec server.JobSpec, wantCache, wantFP string) opResult {
	body, err := json.Marshal(spec)
	if err != nil {
		return opResult{err: err}
	}
	doc, tm, err := s.clients[caller].runJob(tr, seq, body)
	r := opResult{latency: tm.latency, accept: tm.accept, polls: tm.polls,
		queueNS: doc.QueueWaitNS, runNS: doc.RunNS, parts: len(doc.Parts)}
	switch {
	case err != nil:
		r.err = err
	case doc.Status != server.StatusDone:
		r.err = fmt.Errorf("job %s ended %s: %s", doc.ID, doc.Status, doc.Error)
	case doc.Cache != wantCache:
		r.invalid = fmt.Errorf("job %s (%s) was served %q, workload expects %q", doc.ID, spec.RouteKey(), doc.Cache, wantCache)
	case doc.Result == nil || doc.Result.Fingerprint != wantFP:
		r.err = fmt.Errorf("job %s fingerprint differs from reference %s", doc.ID, wantFP)
	default:
		r.simTasks = simTasksOf(doc.Result, spec.Reps)
	}
	return r
}

// simTasksOf is Σ(tasks in the simulated DAG × replicas) of one result.
func simTasksOf(res *server.JobResult, reps int) int {
	if len(res.Sweep) == 0 {
		return res.NumTasks * reps
	}
	n := 0
	for _, p := range res.Sweep {
		n += p.NumTasks * len(p.Makespans)
	}
	return n
}

// drive runs the next n ops of inst across its callers, outside any
// measured window: pre-warming and pre-capturing.
func drive(inst *instance, n int) error {
	return runWindow(inst, limit{ops: n}, nil).check()
}

// simWorkload boots a journaled simd with defaults and serves keys[seq %
// len(keys)]; every op is a capture ("miss") until set-up says otherwise.
func simWorkload(env *runEnv, keys []simKey, probe bench.Spec) (*instance, error) {
	if err := withReferences(keys); err != nil {
		return nil, err
	}
	node, err := startSimd(env.scratch.dir(), server.Config{Pool: 2})
	if err != nil {
		return nil, err
	}
	svc := newService(node.url, node.stop, serviceCallers())
	inst := &instance{
		callers:    len(svc.clients),
		close:      svc.close,
		metricsURL: node.url,
		node:       node,
		probe:      probe,
		wantCache:  "miss",
	}
	inst.op = func(caller int, seq int64, tr *tracer) opResult {
		k := &keys[seq%int64(len(keys))]
		spec := k.spec
		spec.Seed = uint64(seq)
		return svc.submit(caller, seq, tr, spec, inst.wantCache, k.ref)
	}
	return inst, nil
}

// probeSpec is the layer probes' spec of the simulate workloads: QUARK
// cholesky at the workload's nt, whatever key the seed puts first.
func probeSpec(nt, nb int) bench.Spec {
	return bench.Spec{Algorithm: "cholesky", Scheduler: "quark", NT: nt, NB: nb, Workers: 8}
}

// withReferences fills in each key's reference fingerprint. Under the
// service's default model a replay does not depend on nb or on the seed,
// so keys that differ only there share one programmatic capture.
func withReferences(keys []simKey) error {
	type shape struct {
		alg, sched, policy string
		nt                 int
	}
	cache := map[shape]string{}
	for i := range keys {
		s := keys[i].spec
		sh := shape{s.Algorithm, s.Scheduler, s.Policy, s.NT}
		ref, ok := cache[sh]
		if !ok {
			small := s
			small.NB = 1
			var err error
			if ref, err = simReference(small); err != nil {
				return err
			}
			cache[sh] = ref
		}
		keys[i].ref = ref
	}
	return nil
}

func shuffleKeys(keys []simKey, seed uint64) {
	rng.New(seed).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
}

func setupServeHit(env *runEnv) (*instance, error) {
	var keys []simKey
	for _, alg := range []string{"cholesky", "qr"} {
		for _, s := range []string{"quark", "starpu"} {
			keys = append(keys, simKey{spec: server.JobSpec{Algorithm: alg, Scheduler: s, NT: 16, NB: 32, Workers: 8, Reps: 1}})
		}
	}
	shuffleKeys(keys, env.seed)
	inst, err := simWorkload(env, keys, probeSpec(16, 32))
	if err != nil {
		return nil, err
	}
	if err := drive(inst, len(keys)); err != nil {
		inst.close()
		return nil, err
	}
	inst.wantCache = "hit"
	return inst, nil
}

// diskKeys and diskCapacity shape serve-disk: a working set half again as
// large as the memory cache, visited in a fixed cycle, is the LRU's worst
// case — the key due next is always the one evicted longest ago.
const (
	diskKeys     = 96
	diskCapacity = 64 // server.Config's default CacheCapacity
)

// serveDiskKeys is the cycle serve-disk requests, in order.
func serveDiskKeys(seed uint64) []simKey {
	var keys []simKey
	for nb := 1; nb <= diskKeys/len(keySchedulers); nb++ {
		for _, sp := range keySchedulers {
			keys = append(keys, simKey{spec: server.JobSpec{Algorithm: "cholesky", Scheduler: sp.scheduler, Policy: sp.policy, NT: 24, NB: nb, Workers: 8, Reps: 1}})
		}
	}
	shuffleKeys(keys, seed)
	return keys
}

func setupServeDisk(env *runEnv) (*instance, error) {
	keys := serveDiskKeys(env.seed)
	inst, err := simWorkload(env, keys, probeSpec(24, 8))
	if err != nil {
		return nil, err
	}
	// One pass captures every key and leaves the last 64 in memory; from
	// then on the cycle only ever asks for one of the other 32.
	if err := drive(inst, len(keys)); err != nil {
		inst.close()
		return nil, err
	}
	inst.wantCache = "disk"
	return inst, nil
}

// serve-miss's key space: cholesky at nt 31 and 32 over nb 1..40 and the
// six scheduler configurations, 480 keys. nb stays small because
// workload.ForAlgorithm generates the full (nt·nb)² matrix even for a
// capture; the second nt doubles the keys without touching nb.
const (
	missMaxNB  = 40
	missWarmNB = 41
	// missKeysPerSecond sizes the fixed-count window: what the parent
	// commit sustains from two callers on two cores.
	missKeysPerSecond = 48
)

var missNTs = []int{31, 32}

func serveMissKeys(seed uint64) []simKey {
	var keys []simKey
	for _, nt := range missNTs {
		for nb := 1; nb <= missMaxNB; nb++ {
			for _, sp := range keySchedulers {
				keys = append(keys, simKey{spec: server.JobSpec{Algorithm: "cholesky", Scheduler: sp.scheduler, Policy: sp.policy, NT: nt, NB: nb, Workers: 8, Reps: 1}})
			}
		}
	}
	shuffleKeys(keys, seed)
	return keys
}

func setupServeMiss(env *runEnv) (*instance, error) {
	keys := serveMissKeys(env.seed)
	// Six throwaway keys ahead of the measured ones warm the process
	// (scheduler pools, HTTP connections, the journal) without using up
	// a key that must miss later.
	warm := make([]simKey, len(keySchedulers))
	for i, sp := range keySchedulers {
		warm[i] = simKey{spec: server.JobSpec{Algorithm: "cholesky", Scheduler: sp.scheduler, Policy: sp.policy, NT: missNTs[0], NB: missWarmNB, Workers: 8, Reps: 1}}
	}
	keys = append(warm, keys...)
	inst, err := simWorkload(env, keys, probeSpec(32, 20))
	if err != nil {
		return nil, err
	}
	if err := drive(inst, len(warm)); err != nil {
		inst.close()
		return nil, err
	}
	// The window is these ops, however long they take.
	inst.fixedOps = min(len(keys)-len(warm), missKeysPerSecond*env.seconds)
	inst.warmed = true
	return inst, nil
}

// --- the sweep workloads ---

const (
	sweepSeeds     = 8
	clusterWorkers = 2
	// clusterOpsPerSecond sizes cluster-sweep's fixed-count window: what
	// the parent commit's coordinator sustains.
	clusterOpsPerSecond = 24
)

func sweepSpec(seed uint64) server.JobSpec {
	return server.JobSpec{Kind: "sweep", Algorithm: "cholesky", Scheduler: "quark", MaxNT: 16, NB: 32, Reps: 8, Workers: 8, Seed: seed}
}

// sweepReferences computes the expected fingerprint of every sweep seed
// programmatically, on one node and with no server: the cluster's merged
// result must equal it bit for bit.
func sweepReferences(base uint64) ([]server.JobSpec, []string, error) {
	specs := make([]server.JobSpec, sweepSeeds)
	refs := make([]string, sweepSeeds)
	for i := range specs {
		s := sweepSpec(base + uint64(i))
		points, _, err := bench.SweepParallel(s.Scheduler, s.Algorithm, s.NB, s.MaxNT, s.Workers, bench.SweepOptions{
			Reps: s.Reps, Model: core.FixedModel(1e-3), Seed: s.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		specs[i], refs[i] = s, server.SweepFingerprint(points)
	}
	return specs, refs, nil
}

func sweepInstance(env *runEnv, svc *service, metricsURL string, clustered bool) (*instance, error) {
	specs, refs, err := sweepReferences(env.seed)
	if err != nil {
		svc.close()
		return nil, err
	}
	// A worker reports its sweeps as cache bypasses; a coordinator's
	// dispatch view carries no disposition.
	want := "bypass"
	if clustered {
		want = ""
	}
	op := func(caller int, seq int64, tr *tracer) opResult {
		i := seq % sweepSeeds
		return svc.submit(caller, seq, tr, specs[i], want, refs[i])
	}
	probe := bench.Spec{Algorithm: "cholesky", Scheduler: "quark", NT: 16, NB: 32, Workers: 8}
	return &instance{op: op, close: svc.close, callers: len(svc.clients), metricsURL: metricsURL, clustered: clustered, probe: probe}, nil
}

func setupServeSweep(env *runEnv) (*instance, error) {
	node, err := startSimd(env.scratch.dir(), server.Config{Pool: 2})
	if err != nil {
		return nil, err
	}
	return sweepInstance(env, newService(node.url, node.stop, serviceCallers()), node.url, false)
}

func setupClusterSweep(env *runEnv) (*instance, error) {
	c, err := startCluster(env.scratch.dir(), clusterWorkers)
	if err != nil {
		return nil, err
	}
	// Two callers per worker. With two in all, each op's completion is
	// only noticed on the tracker's next 250 ms tick: latency locks onto
	// the tick, throughput onto 8-10 ops/s, and a window holds too few
	// samples for a p90.
	inst, err := sweepInstance(env, newService(c.url, c.stop, clusterWorkers*serviceCallers()), c.url, true)
	if err != nil {
		return nil, err
	}
	inst.fixedOps = clusterOpsPerSecond * env.seconds
	return inst, nil
}
