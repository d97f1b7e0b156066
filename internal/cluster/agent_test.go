package cluster

import (
	"context"
	"testing"
	"time"
)

// TestAgentJitterBounds pins the heartbeat jitter contract: every delay
// lies in [0.5, 1.5) × base.
func TestAgentJitterBounds(t *testing.T) {
	a := &Agent{Name: "w1"}
	base := time.Second
	for i := 0; i < 1000; i++ {
		d := a.jitterDelay(base)
		if d < base/2 || d >= base+base/2 {
			t.Fatalf("delay %v outside [%v, %v)", d, base/2, base+base/2)
		}
	}
}

// TestAgentJitterNoThunder is the anti-thundering-herd property: two
// workers started in the same instant must not keep heartbeating in the
// same instants. We simulate both schedules and assert their cumulative
// fire times separate and stay decorrelated — no lockstep window where
// every beat of one lands within a hair of the other's.
func TestAgentJitterNoThunder(t *testing.T) {
	a := &Agent{Name: "alpha"}
	b := &Agent{Name: "beta"}
	base := time.Second

	const beats = 200
	var ta, tb time.Duration
	coincide := 0
	for i := 0; i < beats; i++ {
		ta += a.jitterDelay(base)
		tb += b.jitterDelay(base)
		diff := ta - tb
		if diff < 0 {
			diff = -diff
		}
		// "Same instant" at fleet scale: within 1% of the base interval.
		if diff < base/100 {
			coincide++
		}
	}
	// With [0.5,1.5) jitter the schedules random-walk apart; a handful of
	// chance near-misses is fine, synchrony is not.
	if coincide > beats/10 {
		t.Fatalf("schedules coincided %d/%d beats — heartbeats are thundering", coincide, beats)
	}

	// Identical names would replay identical schedules; distinct names
	// must draw distinct streams.
	a2 := &Agent{Name: "alpha"}
	b2 := &Agent{Name: "beta"}
	if a2.jitterDelay(base) == b2.jitterDelay(base) && a2.jitterDelay(base) == b2.jitterDelay(base) {
		t.Fatal("distinct workers drew identical jitter streams")
	}
}

// TestAgentRegistersAndRecovers runs a real agent against a real
// coordinator: it registers, heartbeats keep it live past the timeout,
// and after the coordinator forgets it (restart), the 404 heartbeat
// drives re-registration.
func TestAgentRegistersAndRecovers(t *testing.T) {
	w1 := newTestWorker(t, "")
	c, hs := newTestCoordinator(t, "")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agent := &Agent{
		Coordinator: hs.URL,
		Key:         testKey,
		Name:        "w1",
		URL:         w1.http.URL,
		Interval:    30 * time.Millisecond,
	}
	go func() { _ = agent.Run(ctx) }()

	waitLive := func(what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			ws := c.workerStatuses()
			if len(ws) == 1 && ws[0].Live {
				c.mu.Lock()
				hintURL := c.workers["w1"].hintURL
				c.mu.Unlock()
				if hintURL != hs.URL {
					t.Fatalf("%s: done hints would go to %q, want the address the agent registered at, %s", what, hintURL, hs.URL)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: worker never live: %+v", what, ws)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitLive("initial registration")

	// Outlive the heartbeat timeout: the agent's beats must keep the
	// worker live (the coordinator's timeout is 250ms; the agent fires
	// every ~15-45ms).
	time.Sleep(400 * time.Millisecond)
	if ws := c.workerStatuses(); len(ws) != 1 || !ws[0].Live {
		t.Fatalf("worker fell dead despite heartbeats: %+v", ws)
	}

	// Coordinator "restart": forget the worker. The next heartbeat 404s
	// and the agent re-registers.
	c.mu.Lock()
	delete(c.workers, "w1")
	c.ring.Remove("w1")
	c.mu.Unlock()
	waitLive("re-registration after coordinator restart")
}
