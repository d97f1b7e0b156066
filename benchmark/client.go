package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"supersim/internal/cluster"
	"supersim/internal/server"
)

// pollEvery is the closed-loop client's poll cadence after the first,
// immediate poll.
const pollEvery = 200 * time.Microsecond

// apiClient is one closed-loop caller of the jobs API: one keep-alive
// connection, submit then poll.
type apiClient struct {
	hc   *http.Client
	base string
}

func newAPIClient(base string) *apiClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &apiClient{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// do performs one request, reads the whole reply and decodes it as JSON
// into out (when non-nil).
func (c *apiClient) do(method, path string, body []byte, out any) (status int, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s reply: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// jobDoc decodes both a worker's JobView and a coordinator's
// DispatchView: the fields the checks and the per-layer metrics read.
type jobDoc struct {
	ID          string             `json:"id"`
	Status      string             `json:"status"`
	Cache       string             `json:"cache"`
	QueueWaitNS int64              `json:"queue_wait_ns"`
	RunNS       int64              `json:"run_ns"`
	Error       string             `json:"error"`
	Parts       []cluster.PartView `json:"parts"`
	Result      *server.JobResult  `json:"result"`
}

// terminal reports whether a job status is final.
func terminal(status string) bool {
	switch status {
	case server.StatusDone, server.StatusFailed, server.StatusDead, server.StatusRejected, server.StatusRequeued:
		return true
	}
	return false
}

// jobTiming is what the client observed for one submit-then-poll op.
type jobTiming struct {
	latency time.Duration // POST sent → terminal body read
	accept  time.Duration // POST sent → 202 read
	polls   int
}

// runJob submits spec and polls the job to a terminal state: first poll
// at once, then every pollEvery. With a tracer, the op, its POST and each
// poll are spans; the op's self time is the time spent between polls.
func (c *apiClient) runJob(tr *tracer, op int64, spec []byte) (jobDoc, jobTiming, error) {
	var doc jobDoc
	var tm jobTiming
	root := tr.start("op", "client", op, 0)
	defer tr.end(root)
	t0 := time.Now()

	sp := tr.start("post", "client", op, root)
	status, err := c.do(http.MethodPost, "/jobs", spec, &doc)
	tr.end(sp)
	tm.accept = time.Since(t0)
	if err != nil {
		return doc, tm, err
	}
	if status != http.StatusAccepted {
		return doc, tm, fmt.Errorf("submit refused with %d: %s", status, doc.Error)
	}
	path := "/jobs/" + doc.ID
	for {
		sp := tr.start("poll", "client", op, root)
		doc = jobDoc{} // omitted fields must not keep an earlier poll's values
		status, err := c.do(http.MethodGet, path, nil, &doc)
		tr.end(sp)
		tm.polls++
		if err != nil {
			return doc, tm, err
		}
		if status != http.StatusOK {
			return doc, tm, fmt.Errorf("poll %s returned %d", path, status)
		}
		if terminal(doc.Status) {
			tm.latency = time.Since(t0)
			return doc, tm, nil
		}
		if time.Since(t0) > 60*time.Second {
			return doc, tm, fmt.Errorf("job %s still %s after 60s", doc.ID, doc.Status)
		}
		time.Sleep(pollEvery)
	}
}
