package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"
)

// Done hints (simcluster, DESIGN.md §15): a coordinator that wants to hear
// when a part ends names itself on the submission (X-Done-Hint, vetted by
// clusterHintsFor), and the worker POSTs a DoneHint there once the job is
// terminal. It is only a hint — the coordinator fetches the job view itself
// and finds a finished job on its next tick regardless — so delivery is
// best-effort by construction: one goroutine, a bounded buffer that drops
// when full, a short timeout, no retry.

// DoneHint is the body of POST /cluster/done.
type DoneHint struct {
	Worker string `json:"worker"`
	JobID  string `json:"job_id"`
}

// doneHintTimeout bounds one hint delivery. A coordinator that takes longer
// to answer a 100-byte POST is not helped by a hint; its tick takes over.
const doneHintTimeout = 2 * time.Second

// doneHintBacklog is how many undelivered hints the notifier holds before
// it drops new ones: the default queue depth, i.e. every job a worker can
// have accepted finishing while one delivery is stuck.
const doneHintBacklog = 64

// doneNotifier delivers done hints off the pool runners' path.
type doneNotifier struct {
	key    string
	jobs   chan *Job // finished jobs whose hints.doneURL is set
	client *http.Client
	cancel context.CancelFunc
	exited chan struct{}
}

func startDoneNotifier(clusterKey string) *doneNotifier {
	ctx, cancel := context.WithCancel(context.Background())
	n := &doneNotifier{
		key:    clusterKey,
		jobs:   make(chan *Job, doneHintBacklog),
		client: &http.Client{Timeout: doneHintTimeout},
		cancel: cancel,
		exited: make(chan struct{}),
	}
	go n.run(ctx)
	return n
}

// notify queues the job's hint; it never blocks the runner that calls it.
func (n *doneNotifier) notify(job *Job) {
	select {
	case n.jobs <- job:
	default: // backlog full: dropped, the coordinator's tick finds the job
	}
}

func (n *doneNotifier) run(ctx context.Context) {
	defer close(n.exited)
	for {
		select {
		case <-ctx.Done():
			return
		case job := <-n.jobs:
			n.deliver(ctx, job)
		}
	}
}

// deliver makes the one attempt a hint gets; every failure is a dropped
// hint, which costs the coordinator at most one tick.
func (n *doneNotifier) deliver(ctx context.Context, job *Job) {
	raw, err := json.Marshal(DoneHint{Worker: job.hints.worker, JobID: job.ID})
	if err != nil {
		return
	}
	u := strings.TrimSuffix(job.hints.doneURL, "/") + "/cluster/done"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(raw))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Cluster-Key", n.key)
	resp, err := n.client.Do(req)
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	resp.Body.Close()
}

// stop abandons undelivered hints (an in-flight delivery is cancelled) and
// returns once the goroutine has exited.
func (n *doneNotifier) stop() {
	n.cancel()
	<-n.exited
}
