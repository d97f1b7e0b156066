package sched

import (
	"errors"
	"runtime"
	"testing"

	"supersim/internal/hazard"
)

// runScratch inserts a short dependent stream and returns the tracker the
// engine took from insertPool.
func runScratch(t *testing.T, e *Engine) *hazard.Tracker {
	t.Helper()
	e.mu.Lock()
	tr := e.tracker
	e.mu.Unlock()
	h := new(int)
	for i := 0; i < 8; i++ {
		if err := e.Insert(&Task{Class: "K", Func: func(*Ctx) {}, Args: []Arg{RW(h), R(new(int))}}); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestAbortedEngineDropsScratch: an aborted engine does not join its
// workers — even when nothing was left to run — and a Shutdown racing an
// Insert's unlocked tracker scan cannot tell when the scan ends, so in
// each case the next engine must not get the scratch. On one P a sync.Pool hands back what was put last, so the
// first case, a clean run, shows the next engine does get it otherwise.
func TestAbortedEngineDropsScratch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := func() Config { return Config{Workers: 1, Policy: NewFIFOPolicy()} } // a policy serves one engine
	if !raceEnabled {                                                           // the race detector makes a pool drop some of what it is given
		e := mustEngine(cfg())
		tr := runScratch(t, e)
		e.Shutdown()
		next := mustEngine(cfg())
		if next.tracker != tr {
			t.Fatal("a cleanly shut-down engine's tracker did not reach the next engine: the cases below would prove nothing")
		}
		next.Shutdown()
	}
	for _, tc := range []struct {
		name string
		stop func(e *Engine) // ends with e.Shutdown
	}{
		{"aborted mid-run", func(e *Engine) {
			gate := make(chan struct{})
			if err := e.Insert(&Task{Class: "wedged", Func: func(*Ctx) { <-gate }}); err != nil {
				t.Fatal(err)
			}
			e.Abort(errors.New("test abort"))
			e.Shutdown()
			close(gate)
		}},
		{"aborted after draining", func(e *Engine) {
			e.Barrier()
			e.Abort(errors.New("test abort"))
			e.Shutdown()
		}},
		{"scan in flight", func(e *Engine) {
			e.mu.Lock()
			e.scanning = true // as Insert marks it before dropping e.mu for the scan
			e.mu.Unlock()
			e.Shutdown()
		}},
	} {
		e := mustEngine(cfg())
		tr := runScratch(t, e)
		tc.stop(e)
		next := mustEngine(cfg())
		if next.tracker == tr {
			t.Errorf("%s: the next engine got the stopped engine's tracker", tc.name)
		}
		next.Shutdown()
	}
}

// TestLateCallsAfterShutdownTouchNoScratch: once a clean Shutdown handed
// the scratch back, the engine holds none of it, and the calls a caller
// may still make fail or read only the engine's own state.
func TestLateCallsAfterShutdownTouchNoScratch(t *testing.T) {
	e := mustEngine(Config{Workers: 3, Policy: NewLocalityPolicy(3)})
	runScratch(t, e)
	e.Shutdown()
	e.mu.Lock()
	held := e.scratch != nil || e.tracker != nil || e.edges.Len() != 0 || e.live != nil || e.owner != nil
	e.mu.Unlock()
	if held {
		t.Fatal("a cleanly shut-down engine still holds insertion scratch")
	}
	if err := e.Insert(&Task{Class: "K", Func: func(*Ctx) {}, Args: []Arg{W(new(int))}}); !errors.Is(err, ErrShutdown) {
		t.Errorf("Insert after Shutdown returned %v, want ErrShutdown", err)
	}
	if err := e.DisableWorker(2); err != nil {
		t.Errorf("DisableWorker after Shutdown: %v", err)
	}
	if s := e.Stats(); s.TasksCompleted != 8 {
		t.Errorf("Stats after Shutdown: %d tasks completed, want 8", s.TasksCompleted)
	}
	if s := e.Snapshot(); s.LiveTotal != 0 || len(s.Live) != 0 {
		t.Errorf("Snapshot after Shutdown lists %d live tasks", s.LiveTotal)
	}
	e.Shutdown() // a second Shutdown finds nothing to hand back
}
