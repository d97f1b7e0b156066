// Package perfmodel implements the kernel timing methodology of Section
// V-B: per-class execution-time samples are collected from an actual
// scheduled execution of the algorithm (not from isolated kernel timing,
// which misses cache-residency effects), warmup outliers are trimmed (the
// analog of MKL's first-call initialization), and simple probability
// distributions (normal, gamma, log-normal) are fitted per kernel class and
// selected by likelihood.
package perfmodel

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"supersim/internal/dist"
	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/stats"
)

// Sample is one observed kernel execution.
type Sample struct {
	Worker   int
	Duration float64
}

// Collector accumulates timing samples per kernel class during a measured
// run. It is safe for concurrent use by worker goroutines.
type Collector struct {
	mu      sync.Mutex
	samples map[string][]Sample
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{samples: make(map[string][]Sample)}
}

// Add records one observation.
func (c *Collector) Add(class string, worker int, duration float64) {
	c.mu.Lock()
	c.samples[class] = append(c.samples[class], Sample{Worker: worker, Duration: duration})
	c.mu.Unlock()
}

// Hook adapts the collector to core.WithSampleHook.
func (c *Collector) Hook() func(class string, worker int, duration float64) {
	return c.Add
}

// Classes returns the kernel classes observed, sorted.
func (c *Collector) Classes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.samples))
	for k := range c.samples {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Count returns the number of samples for class.
func (c *Collector) Count(class string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.samples[class])
}

// Durations returns all observed durations for class, in arrival order.
func (c *Collector) Durations(class string) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.samples[class]))
	for i, s := range c.samples[class] {
		out[i] = s.Duration
	}
	return out
}

// TrimmedDurations returns the durations for class with the first
// observation of each worker removed — the paper's mitigation for the
// first-call initialization outlier ("the first kernel on each thread will
// take significantly longer to execute than the following kernels"). If
// trimming would leave fewer than minKeep samples, the untrimmed data is
// returned.
func (c *Collector) TrimmedDurations(class string, minKeep int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	all := c.samples[class]
	seen := make(map[int]bool)
	out := make([]float64, 0, len(all))
	for _, s := range all {
		if !seen[s.Worker] {
			seen[s.Worker] = true
			continue
		}
		out = append(out, s.Duration)
	}
	if len(out) < minKeep {
		out = out[:0]
		for _, s := range all {
			out = append(out, s.Duration)
		}
	}
	return out
}

// ClassFit is the fitting outcome for one kernel class.
type ClassFit struct {
	Class      string
	Summary    stats.Summary
	Candidates []dist.FitResult // sorted best-first (by AIC)
	Chosen     dist.Distribution
}

// Model maps kernel classes to fitted duration distributions and implements
// core.DurationModel. Worker kinds can be given speed factors (an
// accelerator runs a kernel KindSpeedup times faster than a CPU), the
// Section VII accelerator extension.
type Model struct {
	Dists map[string]dist.Distribution
	// KindSpeedup divides sampled durations for a worker kind; missing
	// kinds default to 1 (CPU speed).
	KindSpeedup map[sched.WorkerKind]float64
	// Floor clamps sampled durations from below (a normal fit can
	// produce negative values in its tail). Defaults to 0.
	Floor float64
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{Dists: make(map[string]dist.Distribution), KindSpeedup: make(map[sched.WorkerKind]float64)}
}

// Duration implements core.DurationModel.
func (m *Model) Duration(class string, kind sched.WorkerKind, src *rng.Source) float64 {
	d, ok := m.Dists[class]
	if !ok {
		return 0
	}
	v := d.Sample(src)
	if v < m.Floor {
		v = m.Floor
	}
	if v < 0 {
		v = 0
	}
	if s, ok := m.KindSpeedup[kind]; ok && s > 0 {
		v /= s
	}
	return v
}

// Mean returns the expected duration of class on the given kind; used as
// the StarPU dm cost model.
func (m *Model) Mean(class string, kind sched.WorkerKind) float64 {
	d, ok := m.Dists[class]
	if !ok {
		return 0
	}
	v := d.Mean()
	if s, ok := m.KindSpeedup[kind]; ok && s > 0 {
		v /= s
	}
	return v
}

// CostModel adapts the model to the sched.CostModel function type.
func (m *Model) CostModel() sched.CostModel {
	return func(class string, kind sched.WorkerKind) float64 {
		return m.Mean(class, kind)
	}
}

// Fit builds a model from collected samples: per class, the first sample
// of each worker is trimmed, each candidate family is fitted and the
// lowest-AIC distribution is chosen (the paper fits normal, gamma and
// log-normal and found them near-identical with log-normal slightly ahead
// in some cases). families defaults to dist.PaperFamilies.
func Fit(c *Collector, families []dist.Family) (*Model, []ClassFit, error) {
	if len(families) == 0 {
		families = dist.PaperFamilies
	}
	m := NewModel()
	var fits []ClassFit
	for _, class := range c.Classes() {
		xs := c.TrimmedDurations(class, 2)
		if len(xs) == 0 {
			continue
		}
		if len(xs) == 1 {
			// A class executed once (e.g. the final POTRF of a tiny
			// problem): fall back to a constant model.
			m.Dists[class] = dist.Constant{Value: xs[0]}
			fits = append(fits, ClassFit{
				Class:   class,
				Summary: stats.Summarize(xs),
				Chosen:  m.Dists[class],
			})
			continue
		}
		results, err := dist.FitAll(xs, families)
		if err != nil {
			return nil, nil, fmt.Errorf("perfmodel: fitting %s: %w", class, err)
		}
		m.Dists[class] = results[0].Dist
		fits = append(fits, ClassFit{
			Class:      class,
			Summary:    stats.Summarize(xs),
			Candidates: results,
			Chosen:     results[0].Dist,
		})
	}
	if len(m.Dists) == 0 {
		return nil, nil, fmt.Errorf("perfmodel: no samples collected")
	}
	return m, fits, nil
}

// FitSingle builds a model using one forced family for every class (the
// duration-model ablation: constant vs uniform vs normal vs ...).
func FitSingle(c *Collector, family dist.Family) (*Model, error) {
	m := NewModel()
	for _, class := range c.Classes() {
		xs := c.TrimmedDurations(class, 2)
		if len(xs) == 0 {
			continue
		}
		d, err := dist.Fit(family, xs)
		if err != nil {
			// Fall back to constant when the family cannot represent
			// the data (e.g. lognormal with zero durations).
			d = dist.Constant{Value: stats.Mean(xs)}
		}
		m.Dists[class] = d
	}
	if len(m.Dists) == 0 {
		return nil, fmt.Errorf("perfmodel: no samples collected")
	}
	return m, nil
}

// ------------------------------------------------------------ persistence

// modelDTO is the JSON wire form of a Model.
type modelDTO struct {
	Classes map[string]distDTO           `json:"classes"`
	Speedup map[sched.WorkerKind]float64 `json:"speedup,omitempty"`
	Floor   float64                      `json:"floor,omitempty"`
}

type distDTO struct {
	Family string    `json:"family"`
	Params []float64 `json:"params"`
}

func toDTO(d dist.Distribution) (distDTO, error) {
	switch v := d.(type) {
	case dist.Constant:
		return distDTO{Family: "constant", Params: []float64{v.Value}}, nil
	case dist.Uniform:
		return distDTO{Family: "uniform", Params: []float64{v.Lo, v.Hi}}, nil
	case dist.Normal:
		return distDTO{Family: "normal", Params: []float64{v.Mu, v.Sigma}}, nil
	case dist.LogNormal:
		return distDTO{Family: "lognormal", Params: []float64{v.Mu, v.Sigma}}, nil
	case dist.Gamma:
		return distDTO{Family: "gamma", Params: []float64{v.Shape, v.Rate}}, nil
	case dist.Exponential:
		return distDTO{Family: "exponential", Params: []float64{v.Rate}}, nil
	default:
		return distDTO{}, fmt.Errorf("perfmodel: cannot serialize %T", d)
	}
}

func fromDTO(d distDTO) (dist.Distribution, error) {
	need := func(n int) error {
		if len(d.Params) != n {
			return fmt.Errorf("perfmodel: family %s expects %d params, got %d", d.Family, n, len(d.Params))
		}
		return nil
	}
	switch d.Family {
	case "constant":
		if err := need(1); err != nil {
			return nil, err
		}
		return dist.Constant{Value: d.Params[0]}, nil
	case "uniform":
		if err := need(2); err != nil {
			return nil, err
		}
		return dist.Uniform{Lo: d.Params[0], Hi: d.Params[1]}, nil
	case "normal":
		if err := need(2); err != nil {
			return nil, err
		}
		return dist.Normal{Mu: d.Params[0], Sigma: d.Params[1]}, nil
	case "lognormal":
		if err := need(2); err != nil {
			return nil, err
		}
		return dist.LogNormal{Mu: d.Params[0], Sigma: d.Params[1]}, nil
	case "gamma":
		if err := need(2); err != nil {
			return nil, err
		}
		return dist.Gamma{Shape: d.Params[0], Rate: d.Params[1]}, nil
	case "exponential":
		if err := need(1); err != nil {
			return nil, err
		}
		return dist.Exponential{Rate: d.Params[0]}, nil
	default:
		return nil, fmt.Errorf("perfmodel: unknown family %q", d.Family)
	}
}

// MarshalJSON serializes the model so calibrations can be stored and
// replayed across processes.
func (m *Model) MarshalJSON() ([]byte, error) {
	dto := modelDTO{Classes: make(map[string]distDTO), Speedup: m.KindSpeedup, Floor: m.Floor}
	for class, d := range m.Dists {
		dd, err := toDTO(d)
		if err != nil {
			return nil, err
		}
		dto.Classes[class] = dd
	}
	return json.Marshal(dto)
}

// UnmarshalJSON restores a serialized model.
func (m *Model) UnmarshalJSON(data []byte) error {
	var dto modelDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return err
	}
	m.Dists = make(map[string]dist.Distribution, len(dto.Classes))
	for class, dd := range dto.Classes {
		d, err := fromDTO(dd)
		if err != nil {
			return err
		}
		m.Dists[class] = d
	}
	m.KindSpeedup = dto.Speedup
	if m.KindSpeedup == nil {
		m.KindSpeedup = make(map[sched.WorkerKind]float64)
	}
	m.Floor = dto.Floor
	return nil
}
