package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 25}, {0.9, 37}, {1, 40}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{40, 10, 30, 20}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestLatencyPercentilesSampleCountRule(t *testing.T) {
	xs := make([]float64, minSamples-1)
	if _, _, err := latencyPercentiles(xs); err == nil {
		t.Errorf("%d samples accepted, rule needs %d", len(xs), minSamples)
	}
	xs = append(xs, 1)
	if _, _, err := latencyPercentiles(xs); err != nil {
		t.Errorf("%d samples refused: %v", len(xs), err)
	}
}

// The acceptance driver takes quartiles with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v, %v; Python gives 0.75, 2.25", q1, q3)
	}
	if s := spread([]float64{100, 102, 98, 101, 99}); math.Abs(s-0.03) > 1e-9 {
		t.Errorf("spread = %v, want 0.03", s)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 2, Name: "post", Parent: 1, StartNS: 10, EndNS: 30},
		{ID: 3, Name: "poll", Parent: 1, StartNS: 20, EndNS: 50},  // overlaps its sibling
		{ID: 4, Name: "poll", Parent: 1, StartNS: 90, EndNS: 120}, // sticks out of the parent
		{ID: 5, Name: "decode", Parent: 3, StartNS: 40, EndNS: 50},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	id := tr.start("op", "client", 0, 0)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded something")
	}
	on := newTracer()
	root := on.start("op", "client", 7, 0)
	on.end(on.start("post", "client", 7, root))
	on.end(root)
	got := on.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[0].EndNS < got[1].EndNS {
		t.Errorf("unexpected spans %+v", got)
	}
}

func routeKeys(keys []simKey) []string {
	out := make([]string, len(keys))
	for i := range keys {
		s := keys[i].spec
		if err := s.Validate(); err != nil {
			panic(err)
		}
		out[i] = s.RouteKey()
	}
	return out
}

func TestKeyOrderIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := routeKeys(serveMissKeys(1)), routeKeys(serveMissKeys(1)), routeKeys(serveMissKeys(2))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed gave two key orders")
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 1 and 2 gave the same key order")
	}
	set := map[string]int{}
	for i := range a {
		set[a[i]]++
		set[c[i]]--
	}
	for k, n := range set {
		if n != 0 {
			t.Errorf("key %s is not in both seeds' key sets", k)
		}
	}
	if len(set) != len(a) {
		t.Errorf("%d distinct keys of %d: a repeated key cannot miss twice", len(set), len(a))
	}
}

// stubLRU is the memory cache's policy and nothing else.
type stubLRU struct {
	capacity int
	tick     int
	used     map[string]int
}

func (c *stubLRU) get(key string) (hit bool) {
	c.tick++
	_, hit = c.used[key]
	c.used[key] = c.tick
	for len(c.used) > c.capacity {
		victim, oldest := "", c.tick+1
		for k, u := range c.used {
			if u < oldest {
				victim, oldest = k, u
			}
		}
		delete(c.used, victim)
	}
	return hit
}

func TestServeDiskCycleNeverHitsMemory(t *testing.T) {
	keys := routeKeys(serveDiskKeys(3))
	if len(keys) != diskKeys {
		t.Fatalf("%d keys, want %d", len(keys), diskKeys)
	}
	lru := &stubLRU{capacity: diskCapacity, used: map[string]int{}}
	for pass := 0; pass < 4; pass++ {
		for _, k := range keys {
			if lru.get(k) {
				t.Fatalf("pass %d: key %s hit the memory cache", pass, k)
			}
		}
	}
}

func TestRunWindowClosedLoopCountsAndAborts(t *testing.T) {
	inst := &instance{callers: 2, close: func() {}}
	inst.op = func(_ int, seq int64, _ *tracer) opResult {
		if seq%5 == 4 {
			return opResult{err: errors.New("check failed")}
		}
		return opResult{latency: time.Millisecond, simTasks: 10}
	}
	w := runWindow(inst, limit{ops: 50}, nil)
	if w.attempted != 50 || w.failed != 10 || len(w.results) != 40 || w.firstErr == nil {
		t.Errorf("attempted %d failed %d passed %d firstErr %v", w.attempted, w.failed, len(w.results), w.firstErr)
	}
	if got := inst.seq.Load(); got != 50 {
		t.Errorf("sequence advanced to %d, want 50", got)
	}
	inst.op = func(int, int64, *tracer) opResult { return opResult{invalid: errors.New("wrong disposition")} }
	if w := runWindow(inst, limit{ops: 50}, nil); w.invalid == nil || w.attempted > inst.callers {
		t.Errorf("invalid op did not abort the window: attempted %d, invalid %v", w.attempted, w.invalid)
	}
}

func runsOf(workload string, metric string, vals ...float64) []runResult {
	var out []runResult
	for _, v := range vals {
		m := map[string]value{}
		for _, d := range endToEnd {
			m[d.Name] = value{Value: 1, Unit: d.Unit}
		}
		m[metric] = value{Value: v}
		out = append(out, runResult{Workload: workload, driverLine: driverLine{Correct: true, Attempted: 100, Metrics: m}})
	}
	return out
}

func TestAgreeVerdicts(t *testing.T) {
	verdict := func(rows []agreeRow, metric string) string {
		for _, r := range rows {
			if r.Workload == "serve-hit" && r.Metric == metric {
				return r.Verdict
			}
		}
		return "missing"
	}
	base := results{Runs: runsOf("serve-hit", "latency_p50_ms", 1.00, 1.01, 0.99, 1.00)}

	same := results{Runs: runsOf("serve-hit", "latency_p50_ms", 1.02, 1.00, 1.01, 1.03)}
	if v := verdict(agree(base, same), "latency_p50_ms"); v != verdictOK {
		t.Errorf("2%% slower within a 25%% bound: %s", v)
	}
	slow := results{Runs: runsOf("serve-hit", "latency_p50_ms", 1.40, 1.41, 1.39, 1.40)}
	if v := verdict(agree(base, slow), "latency_p50_ms"); v != verdictRegressed {
		t.Errorf("40%% slower against a 25%% bound: %s", v)
	}
	noisy := results{Runs: runsOf("serve-hit", "latency_p50_ms", 0.6, 1.6, 1.0, 1.4)}
	if v := verdict(agree(base, noisy), "latency_p50_ms"); v != verdictUnresolved {
		t.Errorf("spread wider than the bound: %s", v)
	}
	noisyButFaster := results{Runs: runsOf("serve-hit", "latency_p50_ms", 0.5, 0.8, 0.6, 0.9)}
	if v := verdict(agree(base, noisyButFaster), "latency_p50_ms"); v != verdictOK {
		t.Errorf("every run faster than every base run: %s", v)
	}

	// Higher is better for throughput.
	tb := results{Runs: runsOf("serve-hit", "ops_per_s", 1000)}
	if v := verdict(agree(tb, results{Runs: runsOf("serve-hit", "ops_per_s", 700)}), "ops_per_s"); v != verdictRegressed {
		t.Errorf("30%% fewer ops/s: %s", v)
	}
	if v := verdict(agree(tb, results{Runs: runsOf("serve-hit", "ops_per_s", 1500)}), "ops_per_s"); v != verdictOK {
		t.Errorf("50%% more ops/s: %s", v)
	}

	// Set-up times under the floor apart never regress.
	sb := results{Runs: runsOf("serve-hit", "setup_s", 0.06)}
	if v := verdict(agree(sb, results{Runs: runsOf("serve-hit", "setup_s", 0.12)}), "setup_s"); v != verdictOK {
		t.Errorf("60 ms more set-up is under the floor: %s", v)
	}
	if v := verdict(agree(sb, results{Runs: runsOf("serve-hit", "setup_s", 0.9)}), "setup_s"); v != verdictRegressed {
		t.Errorf("0.84 s more set-up: %s", v)
	}

	// error_rate is absolute: any increase regresses.
	failing := results{Runs: runsOf("serve-hit", "latency_p50_ms", 1)}
	failing.Runs[0].Failed = 1
	if v := verdict(agree(base, failing), "error_rate"); v != verdictRegressed {
		t.Errorf("one failed op: %s", v)
	}
	if v := verdict(agree(base, same), "error_rate"); v != verdictOK {
		t.Errorf("no failed op: %s", v)
	}
}

// BENCHMARK.json at the repository root describes this program to the
// acceptance driver; it must say what the code does.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q, defined %q", i, doc.Workloads[i], w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the code's table:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the code's table")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(perLayer))
	}
}
