package server

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// CronSpec is one recurring job template: every EveryMS milliseconds the
// server submits Spec on behalf of Tenant. Templates are journaled
// (fsync-on-add) and survive restarts; after a restart the next firing is
// one full interval after boot, never a catch-up burst.
type CronSpec struct {
	// ID is assigned by the server (c-000001, ...).
	ID string `json:"id,omitempty"`
	// Name is an optional operator label.
	Name string `json:"name,omitempty"`
	// EveryMS is the firing interval in milliseconds (min 10).
	EveryMS int64 `json:"every_ms"`
	// Spec is the job template submitted on each firing. Fired jobs pass
	// through the tenant's normal admission path — rate limit and queue
	// share included — so a hot cron cannot bypass tenancy; refused
	// firings are counted as skips, not queued up.
	Spec JobSpec `json:"spec"`
	// Tenant is the owning tenant (resolved from the submitting request).
	Tenant string `json:"tenant,omitempty"`
}

func (c *CronSpec) validate() error {
	if c.EveryMS < 10 {
		return fmt.Errorf("every_ms must be >= 10 (got %d)", c.EveryMS)
	}
	return c.Spec.validate()
}

// CronView is the JSON representation of a recurring template.
type CronView struct {
	CronSpec
	Fired   uint64 `json:"fired"`
	Skipped uint64 `json:"skipped"` // firings refused by admission (rate/queue)
	// Drifts counts firings whose result diverged from the template's
	// pinned baseline (always 0 without a -data-dir).
	Drifts uint64 `json:"drifts"`
}

// cronEntry is one armed template. next/fired/skipped/drifts are touched
// only with the owning cronRunner's mu held (a cross-struct lock, outside
// the guarded analyzer's scope).
type cronEntry struct {
	spec    CronSpec
	next    time.Time
	fired   uint64
	skipped uint64
	drifts  uint64
}

// cronRunner drives the recurring templates from a single goroutine: it
// sleeps until the earliest due entry, submits it through the tenant's
// normal admission path, and re-arms. Add/remove wake it to recompute.
type cronRunner struct {
	s *Server

	mu      sync.Mutex
	entries map[string]*cronEntry // guarded-by: mu
	wake    chan struct{}
	stop    chan struct{}
	done    chan struct{}
	stopped bool // guarded-by: mu
}

func newCronRunner(s *Server) *cronRunner {
	c := &cronRunner{
		s:       s,
		entries: make(map[string]*cronEntry),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.loop()
	return c
}

// add arms a validated template.
func (c *cronRunner) add(spec CronSpec) {
	c.mu.Lock()
	//simlint:allow vclock — cron firing times are wall-clock by definition
	c.entries[spec.ID] = &cronEntry{spec: spec, next: time.Now().Add(time.Duration(spec.EveryMS) * time.Millisecond)}
	c.mu.Unlock()
	c.kick()
}

// remove disarms a template, reporting whether it existed.
func (c *cronRunner) remove(id string) bool {
	c.mu.Lock()
	_, ok := c.entries[id]
	delete(c.entries, id)
	c.mu.Unlock()
	c.kick()
	return ok
}

// get returns one template's view.
func (c *cronRunner) get(id string) (CronView, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return CronView{}, false
	}
	return CronView{CronSpec: e.spec, Fired: e.fired, Skipped: e.skipped, Drifts: e.drifts}, true
}

// noteDrift records one baseline divergence against the owning template.
// Unknown IDs (template removed while its firing ran) are dropped.
func (c *cronRunner) noteDrift(id string) {
	c.mu.Lock()
	if e, ok := c.entries[id]; ok {
		e.drifts++
	}
	c.mu.Unlock()
}

// list returns every armed template, ID-ordered.
func (c *cronRunner) list() []CronView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CronView, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, CronView{CronSpec: e.spec, Fired: e.fired, Skipped: e.skipped, Drifts: e.drifts})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (c *cronRunner) kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// shutdown stops the runner and waits for the loop to exit.
func (c *cronRunner) shutdown() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()
	close(c.stop)
	<-c.done
}

// loop is the runner goroutine.
func (c *cronRunner) loop() {
	defer close(c.done)
	//simlint:allow vclock — the cron scheduler is wall-clock by definition
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		c.mu.Lock()
		var nextAt time.Time
		for _, e := range c.entries {
			if nextAt.IsZero() || e.next.Before(nextAt) {
				nextAt = e.next
			}
		}
		c.mu.Unlock()

		wait := time.Hour
		if !nextAt.IsZero() {
			wait = time.Until(nextAt) //simlint:allow vclock — see loop comment
			if wait < 0 {
				wait = 0
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)

		select {
		case <-c.stop:
			return
		case <-c.wake:
		case <-timer.C:
			c.fireDue()
		}
	}
}

// fireDue submits every due template once and re-arms it one interval
// from now (not from the nominal due time: a stalled host must not cause
// a catch-up burst that the rate limiter would immediately refuse).
func (c *cronRunner) fireDue() {
	now := time.Now() //simlint:allow vclock — see loop comment
	type firing struct {
		e    *cronEntry
		spec CronSpec
	}
	var due []firing
	c.mu.Lock()
	for _, e := range c.entries {
		if !e.next.After(now) {
			e.next = now.Add(time.Duration(e.spec.EveryMS) * time.Millisecond)
			due = append(due, firing{e: e, spec: e.spec})
		}
	}
	c.mu.Unlock()

	// c.entries is a map, so the due set arrives in randomized order; fire
	// in spec-ID order so coincident templates enter the scheduler's
	// pickup queue identically on every run (simlint detmap).
	sort.Slice(due, func(i, j int) bool { return due[i].spec.ID < due[j].spec.ID })

	for _, f := range due {
		t := c.s.tenantNamed(f.spec.Tenant)
		if t == nil {
			t = c.s.defaultTenant()
		}
		_, err := c.s.submitAs(t, f.spec.Spec, "cron:"+f.spec.ID, clusterHints{})
		c.mu.Lock()
		if err != nil {
			f.e.skipped++
		} else {
			f.e.fired++
		}
		c.mu.Unlock()
	}
}
