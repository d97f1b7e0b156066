package server

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"supersim/internal/rng"
	"supersim/internal/stats"
)

// TestLatencyBucketTable pins the one bucket table: log-spaced from 1 µs
// to at least 1 h, consecutive edges within a ratio of 1.1, and the
// underflow and overflow buckets at either end.
func TestLatencyBucketTable(t *testing.T) {
	if latencyEdgesMS[0] != 1e-3 {
		t.Fatalf("first edge %g ms, want 1 µs", latencyEdgesMS[0])
	}
	if top := latencyEdgesMS[latencyEdges-1]; top < 3.6e6 || top > 1.1*3.6e6 {
		t.Fatalf("top edge %g ms, want about 1 h", top)
	}
	for i := 1; i < latencyEdges; i++ {
		if r := latencyEdgesMS[i] / latencyEdgesMS[i-1]; r <= 1 || r > 1.1 {
			t.Fatalf("edges %d/%d differ by the ratio %g", i-1, i, r)
		}
	}
	for ms, want := range map[float64]int{0: 0, 5e-4: 0, 1e-3: 1, 1: 3*latencyPerDecade + 1, 1e9: latencyEdges} {
		if got := latencyBucket(ms); got != want {
			t.Errorf("latencyBucket(%g) = %d, want %d", ms, got, want)
		}
	}
	var s latencySeries
	s.observe(0)
	s.observe(2 * time.Hour)
	got := s.stats()
	top := latencyEdgesMS[latencyEdges-1]
	want := []HistogramBin{{0, 1e-3, 1}, {top, 7.2e6, 1}}
	if !reflect.DeepEqual(got.Histogram, want) || got.MaxMS != 7.2e6 || got.P95MS <= top || got.P95MS > 7.2e6 {
		t.Fatalf("underflow/overflow series %+v, want bins %v, max 7.2e6 and p95 inside the overflow", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.observe(time.Millisecond) }); allocs != 0 {
		t.Fatalf("observe allocates %g times", allocs)
	}
}

// TestLatencyMergeIsExact feeds seeded log-normal latencies (median 1 ms)
// to one series and, split into 1–3 parts, to one series per part. The
// merge of the parts' JSON snapshots, in every order, must equal the
// single series bin for bin, with the same count, p50, p95 and max and
// the mean up to rounding; and p50/p95 must lie within one bucket width
// of the raw sample's quantiles.
func TestLatencyMergeIsExact(t *testing.T) {
	const n = 3000
	for si, sigma := range []float64{0.25, 0.5, 1, 1.5} {
		src := rng.New(uint64(41 + si))
		sample := make([]time.Duration, n)
		raw := make([]float64, n)
		var whole latencySeries
		for i := range sample {
			sample[i] = time.Duration(math.Exp(sigma*src.NormFloat64()) * 1e6)
			raw[i] = float64(sample[i]) / 1e6
			whole.observe(sample[i])
		}
		want := whole.stats()
		if want.Count != n {
			t.Fatalf("σ=%g: count %d, want %d", sigma, want.Count, n)
		}

		sort.Float64s(raw)
		for _, q := range []struct {
			p   float64
			got float64
		}{{0.50, want.P50MS}, {0.95, want.P95MS}} {
			exact := stats.Quantile(raw, q.p)
			lo, hi := latencyBounds(latencyBucket(exact), want.MaxMS)
			if math.Abs(q.got-exact) > hi-lo {
				t.Errorf("σ=%g: p%g = %g ms, raw sample's %g ms: more than the bucket width %g apart",
					sigma, 100*q.p, q.got, exact, hi-lo)
			}
		}

		for k := 1; k <= 3; k++ {
			parts := make([]LatencyStats, k)
			for p := range parts {
				var s latencySeries
				for i := p; i < n; i += k {
					s.observe(sample[i])
				}
				parts[p] = viaJSON(t, s.stats())
			}
			for _, order := range permutations(k) {
				series := make([]LatencyStats, k)
				for i, p := range order {
					series[i] = parts[p]
				}
				got := MergeLatency(series...)
				name := fmt.Sprintf("σ=%g, parts %v", sigma, order)
				if got.Count != want.Count || got.P50MS != want.P50MS || got.P95MS != want.P95MS || got.MaxMS != want.MaxMS {
					t.Fatalf("%s: merge %+v, one series %+v", name, got, want)
				}
				if !reflect.DeepEqual(got.Histogram, want.Histogram) {
					t.Fatalf("%s: merged bins differ from one series'", name)
				}
				if math.Abs(got.MeanMS-want.MeanMS) > 1e-9*want.MeanMS {
					t.Fatalf("%s: merged mean %g, one series' %g", name, got.MeanMS, want.MeanMS)
				}
			}
		}
	}
}

// viaJSON round-trips a snapshot through its wire form, as a coordinator
// receives it from a worker.
func viaJSON(t *testing.T, s LatencyStats) LatencyStats {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var out LatencyStats
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// permutations lists every order of 0..k-1.
func permutations(k int) [][]int {
	if k == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(k - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), k-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestLatencyObserveConcurrent has goroutines observe every series while
// /metrics snapshots run; no observation may be lost.
func TestLatencyObserveConcurrent(t *testing.T) {
	srv := newTestServer(t, Config{Pool: 1})
	const goroutines, each = 8, 2000
	var wg sync.WaitGroup
	started, done, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		srv.Metrics()
		close(started)
		for {
			select {
			case <-done:
				return
			default:
				srv.Metrics()
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-started
			for i := 0; i < each; i++ {
				d := time.Duration(g*each+i) * time.Microsecond
				srv.metrics.queueWait.observe(d)
				srv.metrics.runTime.observe(d)
				srv.tenants[0].m.queueWait.observe(d)
			}
		}(g)
	}
	wg.Wait()
	close(done)
	<-stopped
	m := srv.Metrics()
	want := uint64(goroutines * each)
	maxMS := float64(time.Duration(want-1)*time.Microsecond) / 1e6
	for name, s := range map[string]LatencyStats{"queue_wait": m.QueueWait, "run": m.Run, "tenant queue_wait": m.Tenants[0].QueueWait} {
		if s.Count != want {
			t.Errorf("%s count %d, want %d", name, s.Count, want)
		}
		if s.MaxMS != maxMS {
			t.Errorf("%s max %g ms, want %g", name, s.MaxMS, maxMS)
		}
	}
}
