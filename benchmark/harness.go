package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// limit ends a window: after ops operations when set, else after dur.
type limit struct {
	dur time.Duration
	ops int
}

// window is what one closed-loop window observed.
type window struct {
	elapsed   time.Duration
	results   []opResult // completed ops that passed every check
	attempted int
	failed    int
	firstErr  error
	invalid   error

	allocBytes uint64 // process TotalAlloc delta over the window
}

// check is the verdict on a window outside the end-to-end run, where one
// failed operation is reason enough to stop.
func (w window) check() error {
	if w.invalid != nil {
		return fmt.Errorf("workload invalid: %w", w.invalid)
	}
	if w.failed > 0 {
		return fmt.Errorf("%d of %d operations failed: %w", w.failed, w.attempted, w.firstErr)
	}
	return nil
}

// runWindow drives inst's callers in a closed loop — each sends its next
// operation only once the previous one has returned — until lim is
// reached. Operations in flight at the deadline complete and count.
func runWindow(inst *instance, lim limit, tr *tracer) window {
	var issued atomic.Int64
	var stop atomic.Bool
	per := make([]window, inst.callers) // one per caller: no lock in the loop

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < inst.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &per[c]
			for !stop.Load() {
				if lim.ops > 0 {
					if issued.Add(1) > int64(lim.ops) {
						return
					}
				} else if time.Since(start) >= lim.dur {
					return
				}
				r := inst.op(c, inst.seq.Add(1)-1, tr)
				w.attempted++
				switch {
				case r.invalid != nil:
					w.invalid = r.invalid
					stop.Store(true)
				case r.err != nil:
					w.failed++
					if w.firstErr == nil {
						w.firstErr = r.err
					}
				default:
					w.results = append(w.results, r)
				}
			}
		}(c)
	}
	wg.Wait()
	out := window{elapsed: time.Since(start)}
	runtime.ReadMemStats(&after)
	out.allocBytes = after.TotalAlloc - before.TotalAlloc
	for _, w := range per {
		out.attempted += w.attempted
		out.failed += w.failed
		if out.firstErr == nil {
			out.firstErr = w.firstErr
		}
		if out.invalid == nil {
			out.invalid = w.invalid
		}
		out.results = append(out.results, w.results...)
	}
	return out
}

// liveHeapMB is the bytes of live objects after a forced collection: what
// caches, retained jobs and DAG forms keep resident. Two cycles, because a
// sync.Pool gives its contents up only on the second. HeapAlloc, not
// HeapInuse: the spans a few survivors pin vary by a factor of two from
// run to run, the survivors themselves by under 1 %.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// endToEndOf turns an untraced window into the end-to-end metrics.
func endToEndOf(w window, setupS float64) (map[string]float64, error) {
	var lat []float64
	tasks := 0
	for _, r := range w.results {
		lat = append(lat, float64(r.latency)/1e6)
		tasks += r.simTasks
	}
	p50, p90, err := latencyPercentiles(lat)
	if err != nil {
		return nil, err
	}
	secs := w.elapsed.Seconds()
	ops := float64(len(w.results))
	return map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       ops / secs,
		"sim_tasks_per_s": float64(tasks) / secs,
		"latency_p50_ms":  p50,
		"latency_p90_ms":  p90,
		"alloc_kb_per_op": float64(w.allocBytes) / 1024 / ops,
		"live_heap_mb":    liveHeapMB(),
	}, nil
}

// Set-up is timed several times in a run and the median reported, so one
// slow fsync does not read as a set-up regression: at least minSetups
// times, and more while they are cheap.
const (
	minSetups     = 3
	maxSetups     = 15
	setupBudget   = 2 * time.Second
	warmupSeconds = 1
)

// setupRepeated boots the workload repeatedly, keeps the last instance
// and returns the median set-up time.
func setupRepeated(def *workloadDef, env *runEnv) (*instance, float64, error) {
	var times []float64
	var inst *instance
	begin := time.Now()
	for len(times) < minSetups || (len(times) < maxSetups && time.Since(begin) < setupBudget) {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = def.setup(env); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, median(times), nil
}

// driverLine is the JSON object a run prints as its last line: exactly
// the keys the acceptance driver reads.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runResult is one run of one workload as results.json keeps it.
type runResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	driverLine
	// Samples is the number of latency samples behind the percentiles;
	// printed with the run, not part of its last line.
	Samples int `json:"-"`
}

// measuredLimit is the window of a run: the workload's fixed op count
// scaled by share, or share of the run's seconds.
func measuredLimit(inst *instance, seconds int, share float64) limit {
	if inst.fixedOps > 0 {
		return limit{ops: max(minSamples, int(float64(inst.fixedOps)*share))}
	}
	return limit{dur: time.Duration(float64(seconds) * share * float64(time.Second))}
}

// warmUp runs the workload unmeasured so lazy set-up finishes before
// timing.
func warmUp(inst *instance) error {
	if inst.warmed {
		return nil
	}
	return runWindow(inst, limit{dur: warmupSeconds * time.Second}, nil).check()
}

// runUntraced is the end-to-end run: set-up (timed), warm-up (discarded),
// then the measured window with tracing off.
func runUntraced(def *workloadDef, env *runEnv) (runResult, error) {
	res := runResult{Workload: def.name, Seed: env.seed}
	inst, setupS, err := setupRepeated(def, env)
	if err != nil {
		return res, err
	}
	defer inst.close()
	if err := warmUp(inst); err != nil {
		return res, err
	}
	runtime.GC() // every window starts from a collected heap, whatever set-up left
	w := runWindow(inst, measuredLimit(inst, env.seconds, 1), nil)
	if w.invalid != nil {
		return res, fmt.Errorf("workload invalid: %w", w.invalid)
	}
	if w.firstErr != nil {
		fmt.Printf("# %s: first failed op: %v\n", def.name, w.firstErr)
	}
	measured, err := endToEndOf(w, setupS)
	// The live heap is taken with the workload still standing: a library
	// instance's loaded arena is as resident as a server's cache.
	runtime.KeepAlive(inst)
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed, res.Samples = w.attempted, w.failed, len(w.results)
	res.Correct = w.failed == 0
	var missing []string
	res.Metrics, missing = pick(endToEnd, measured)
	if len(missing) > 0 {
		return res, fmt.Errorf("end-to-end metrics not measured: %v", missing)
	}
	return res, nil
}
