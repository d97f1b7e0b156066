package cluster

import (
	"net/http"
	"time"

	"supersim/internal/server"
)

// track is the coordinator's single control loop: on every kick (a
// submission, a registration, a worker's done hint) or tick it detects
// dead workers, fails their parts over, sends pending parts, and fetches
// the views of sent parts. One loop, one lock — every state transition of
// every dispatch happens here or in an HTTP handler, both under c.mu, so
// there is no per-dispatch goroutine to leak or race. Events drive the
// healthy path; the tick is the failure detector and the backstop for a
// lost hint.
func (c *Coordinator) track() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.PollInterval)
	defer ticker.Stop()
	for {
		onTick := false
		select {
		case <-c.ctx.Done():
			return
		case <-ticker.C:
			onTick = true
		case <-c.kick:
		}
		c.reapDead()
		c.pump(onTick)
	}
}

// reapDead declares workers silent past the heartbeat timeout dead,
// removes them from the ring, and re-routes their unfinished parts.
func (c *Coordinator) reapDead() {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if !w.live || now.Sub(w.lastBeat) <= c.cfg.HeartbeatTimeout {
			continue
		}
		w.live = false
		c.ring.Remove(w.name)
		c.failoverLocked(w.name)
	}
}

// failoverLocked re-routes every unfinished part assigned to the dead
// worker: a fresh attempt is opened (pending, unassigned) while the old
// attempt is retained and kept under poll — if the worker was only
// partitioned, its completion is deduplicated by fingerprint rather than
// double-counted (the journal's exactly-once identity model, applied
// across nodes).
// Caller holds c.mu.
func (c *Coordinator) failoverLocked(dead string) {
	for _, d := range c.inOrderLocked() {
		if d.status == StatusDone || d.status == StatusFailed {
			continue
		}
		for _, p := range d.parts {
			if p.status == partDone || p.status == partFailed {
				continue
			}
			if p.current().Worker != dead {
				continue
			}
			p.attempts = append(p.attempts, &attempt{})
			p.status = partPending
			c.failovers.Add(1)
		}
	}
}

// send is one part submission the pump performs outside the lock.
type send struct {
	d         *dispatch
	p         *part
	att       *attempt
	url       string
	spec      server.JobSpec
	frameHint string
	// worker and doneHint are the assignee's ring name and hintURL, echoed
	// to it so that it can say when the part ends ("" = no hint asked for).
	worker, doneHint string
}

// poll is one part status probe the pump performs outside the lock.
type poll struct {
	d   *dispatch
	p   *part
	att *attempt
	url string
}

// inOrderLocked returns the dispatches in accept order — the store's
// order, so every pass over them is deterministic. An ID whose dispatch
// is not in the table yet (accepted, insert pending) is skipped; its
// submit kicks the tracker again.
// Caller holds c.mu.
func (c *Coordinator) inOrderLocked() []*dispatch {
	ids := c.store.IDs()
	out := make([]*dispatch, 0, len(ids))
	for _, id := range ids {
		if d := c.dispatches[id]; d != nil {
			out = append(out, d)
		}
	}
	return out
}

// pump advances every dispatch one step: it collects the HTTP work under
// the lock, performs it unlocked, then applies the outcomes under the
// lock again. Worker HTTP latency therefore never blocks handlers. onTick
// says the ticker started the pass, not an event.
func (c *Coordinator) pump(onTick bool) {
	var sends []send
	var polls []poll

	c.mu.Lock()
	for _, d := range c.inOrderLocked() {
		unfinished := d.status != StatusDone && d.status != StatusFailed
		for _, p := range d.parts {
			if unfinished && p.status == partPending {
				name := p.current().Worker
				if name == "" || c.workers[name] == nil || !c.workers[name].live {
					name = c.placeLocked(d, p.pointOffset)
					if name == "" {
						continue // no live workers; retry next tick
					}
					p.current().Worker = name
				}
				spec := d.spec
				spec.PointOffset, spec.PointStride = p.pointOffset, p.pointStride
				sends = append(sends, send{
					d: d, p: p, att: p.current(),
					url:       c.workers[name].url,
					spec:      spec,
					frameHint: c.frameHintLocked(d, name),
					worker:    name,
					doneHint:  c.workers[name].hintURL,
				})
				continue
			}
			// Poll every unsettled attempt that reached a worker — not just
			// the current one, and even after the dispatch finished: a
			// worker declared dead by missed heartbeats may still complete
			// its copy, and that duplicate must be observed and deduped
			// (applyViewLocked), not silently ignored.
			for _, att := range p.attempts {
				if !att.polled() {
					continue
				}
				w := c.workers[att.Worker]
				if w == nil {
					att.settled = true
					continue
				}
				polls = append(polls, poll{d: d, p: p, att: att, url: w.url + "/jobs/" + att.JobID})
			}
		}
	}
	c.mu.Unlock()

	for i := range sends {
		s := &sends[i]
		var view server.JobView
		hdr := map[string]string{}
		if s.frameHint != "" {
			hdr["X-Frame-Source"] = s.frameHint
		}
		if s.doneHint != "" {
			hdr["X-Done-Hint"] = s.doneHint
			hdr["X-Done-Worker"] = s.worker
		}
		status, err := c.workerRequest(http.MethodPost, s.url+"/jobs", s.spec, s.d.auth, hdr, &view)
		c.mu.Lock()
		switch {
		case err == nil && status == http.StatusAccepted && view.ID != "":
			if s.p.current() == s.att && s.p.status == partPending {
				s.att.JobID = view.ID
				s.p.status = partSent
				c.dispatched.Add(1)
			}
		case err == nil && status >= 400 && status < 500 && status != http.StatusTooManyRequests:
			// The worker rejected the spec outright; retrying elsewhere
			// cannot help.
			if s.p.current() == s.att {
				s.p.status = partFailed
				s.d.errMsg = "worker rejected part"
			}
		default:
			// Transient (connection refused, 429, 503): stay pending; the
			// next tick retries, possibly on a different worker once the
			// assignee is declared dead.
		}
		c.mu.Unlock()
	}

	for i := range polls {
		pl := &polls[i]
		var view server.JobView
		status, err := c.workerRequest(http.MethodGet, pl.url, nil, pl.d.auth, nil, &view)
		c.mu.Lock()
		switch {
		case err == nil && status == http.StatusOK:
			pl.att.view = &view
			c.applyViewLocked(pl.d, pl.p, pl.att, &view)
			if onTick && pl.att.settled {
				c.tickCompletions.Add(1)
			}
		case err == nil && status == http.StatusNotFound:
			// The job vanished (worker restarted without its journal).
			pl.att.settled = true
			if pl.p.current() == pl.att && pl.p.status == partSent {
				pl.p.attempts = append(pl.p.attempts, &attempt{})
				pl.p.status = partPending
			}
		default:
			// Unreachable. Abandon the attempt only once the worker is also
			// declared dead; a transient fetch error keeps polling.
			if w := c.workers[pl.att.Worker]; w == nil || !w.live {
				pl.att.settled = true
			}
		}
		c.mu.Unlock()
	}

	c.settle()
}

// applyViewLocked folds one polled job view into its part.
// Caller holds c.mu.
func (c *Coordinator) applyViewLocked(d *dispatch, p *part, att *attempt, view *server.JobView) {
	switch view.Status {
	case server.StatusDone:
		att.settled = true
		if p.status == partDone {
			// A second attempt of the same part completed (failover raced a
			// worker that was only partitioned, not dead). The replica-seed
			// invariant says both runs computed the same pure function;
			// fingerprints are how we prove it — the journal's exactly-once
			// identity model applied across nodes.
			if p.result != nil && view.Result != nil && p.result.Fingerprint == view.Result.Fingerprint {
				c.deduped.Add(1)
			} else {
				c.mismatches.Add(1)
			}
			return
		}
		p.status = partDone
		p.result = view.Result
		if d.routeKey != "" {
			// This worker now holds the frame: future owners fetch from it.
			c.routeOrigin[d.routeKey] = att.Worker
		}
	case server.StatusFailed, server.StatusDead:
		att.settled = true
		if p.status != partDone {
			p.status = partFailed
			d.errMsg = view.Error
		}
	case server.StatusRejected, server.StatusRequeued:
		// The worker shed the job (drain/restart). Reopen the part so the
		// tracker re-dispatches it.
		att.settled = true
		if p.status == partSent && p.current() == att {
			p.attempts = append(p.attempts, &attempt{})
			p.status = partPending
		}
	}
}

// settle finalizes dispatches whose parts have all completed: merging
// fanned-out sweep results, stamping the dispatch status, and recording
// the verdict in the store (outside c.mu: the append, and the compaction
// it triggers every so many finishes, are file I/O).
func (c *Coordinator) settle() {
	var done []server.JobRecord
	c.mu.Lock()
	for _, d := range c.inOrderLocked() {
		if d.status == StatusDone || d.status == StatusFailed {
			continue
		}
		allDone, anyFailed, anyStarted := true, false, false
		for _, p := range d.parts {
			switch p.status {
			case partDone:
				anyStarted = true
			case partFailed:
				anyFailed = true
				allDone = false
			case partSent:
				anyStarted = true
				allDone = false
			default:
				allDone = false
			}
		}
		switch {
		case anyFailed:
			d.status = StatusFailed
			done = append(done, d.record())
		case allDone && len(d.parts) > 0:
			res, err := mergeParts(&d.spec, d.parts)
			if err != nil {
				d.status = StatusFailed
				d.errMsg = err.Error()
			} else {
				d.status = StatusDone
				d.result = res
			}
			done = append(done, d.record())
		case anyStarted:
			d.status = StatusRunning
		}
	}
	c.mu.Unlock()
	for _, rec := range done {
		c.store.Finish(rec)
	}
}
