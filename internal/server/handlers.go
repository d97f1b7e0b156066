package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"supersim/internal/trace"
)

// routes builds the service mux. Method-qualified patterns (Go 1.22
// net/http) give 405s for free.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/trace.svg", s.handleTraceSVG)
	mux.HandleFunc("POST /crons", s.handleCronAdd)
	mux.HandleFunc("GET /crons", s.handleCronList)
	mux.HandleFunc("GET /crons/{id}", s.handleCronGet)
	mux.HandleFunc("DELETE /crons/{id}", s.handleCronDelete)
	mux.HandleFunc("GET /internal/frames", s.handleFrame)
	return mux
}

// retryAfter sets a jittered Retry-After header: base seconds scaled by a
// uniform factor in [0.5, 1.5), rounded up. The jitter matters: every
// 429'd client of a constant hint retries in the same instant and
// re-collides (retry stampede); spreading the hints spreads the retries.
func (s *Server) retryAfter(w http.ResponseWriter, base float64) {
	secs := int(math.Ceil(base * (0.5 + s.jitterFloat())))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// apiError is the JSON error envelope. Retryable tells clients whether
// resubmitting the identical request later can succeed (queue full,
// draining) or not (validation failure, job failure).
type apiError struct {
	Error     string `json:"error"`
	Retryable bool   `json:"retryable,omitempty"`
}

// WriteJSON writes v as the JSON body of a response with the given status.
// Exported with WriteError for the cluster coordinator, which serves the
// same API envelope.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // header already sent; nothing useful to do on error
}

// WriteError writes the JSON error envelope.
func WriteError(w http.ResponseWriter, status int, retryable bool, format string, args ...any) {
	WriteJSON(w, status, apiError{Error: fmt.Sprintf(format, args...), Retryable: retryable})
}

// maxSpecBytes bounds a job-spec body; real specs are a few hundred bytes.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(r)
	if t == nil {
		WriteError(w, http.StatusUnauthorized, false, "%v", ErrUnknownTenant)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, false, "decoding job spec: %v", err)
		return
	}
	job, err := s.submitAs(t, spec, "", s.clusterHintsFor(r))
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantShare):
		s.retryAfter(w, 1)
		WriteError(w, http.StatusTooManyRequests, true, "%v", err)
		return
	case errors.Is(err, ErrRateLimited):
		// Base the hint on the bucket's actual refill horizon.
		_, wait := t.bucket.take()
		s.retryAfter(w, wait.Seconds())
		WriteError(w, http.StatusTooManyRequests, true, "%v", err)
		return
	case errors.Is(err, ErrDraining):
		s.retryAfter(w, 5)
		WriteError(w, http.StatusServiceUnavailable, true, "%v", err)
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, false, "%v", err)
		return
	}
	w.Header().Set("Location", "/jobs/"+job.ID)
	WriteJSON(w, http.StatusAccepted, job.view())
}

func (s *Server) handleCronAdd(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(r)
	if t == nil {
		WriteError(w, http.StatusUnauthorized, false, "%v", ErrUnknownTenant)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	var spec CronSpec
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, false, "decoding cron spec: %v", err)
		return
	}
	view, err := s.AddCron(t.cfg.Name, spec)
	switch {
	case errors.Is(err, ErrDraining):
		s.retryAfter(w, 5)
		WriteError(w, http.StatusServiceUnavailable, true, "%v", err)
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, false, "%v", err)
		return
	}
	w.Header().Set("Location", "/crons/"+view.ID)
	WriteJSON(w, http.StatusCreated, view)
}

func (s *Server) handleCronList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"crons": s.Crons()})
}

func (s *Server) handleCronGet(w http.ResponseWriter, r *http.Request) {
	view, ok := s.cron.get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, false, "no such cron %q", r.PathValue("id"))
		return
	}
	WriteJSON(w, http.StatusOK, view)
}

func (s *Server) handleCronDelete(w http.ResponseWriter, r *http.Request) {
	removed, err := s.RemoveCron(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusInternalServerError, true, "%v", err)
		return
	}
	if !removed {
		WriteError(w, http.StatusNotFound, false, "no such cron %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, false, "no such job %q", r.PathValue("id"))
		return
	}
	WriteJSON(w, http.StatusOK, job.view())
}

// jobTrace resolves a done job's trace for the trace endpoints, writing the
// error response when there is none to serve: a direct job's is the one it
// retained, a cached job's is re-derived and checked against the job's
// fingerprint (replayTrace) on the request's own goroutine — a cold path
// that costs one replay, and a capture if every cache level lost the frame.
func (s *Server) jobTrace(w http.ResponseWriter, r *http.Request) *trace.Trace {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, false, "no such job %q", r.PathValue("id"))
		return nil
	}
	switch job.Status() {
	case StatusDone:
	case StatusFailed, StatusDead, StatusRejected:
		WriteError(w, http.StatusConflict, false, "job %s %s; no trace", job.ID, job.Status())
		return nil
	default:
		s.retryAfter(w, 1)
		WriteError(w, http.StatusConflict, true, "job %s still %s; poll again", job.ID, job.Status())
		return nil
	}
	if tr := job.Trace(); tr != nil {
		return tr
	}
	switch spec := &job.Spec; {
	case !spec.keepTrace():
		WriteError(w, http.StatusNotFound, false,
			"job %s retained no trace (sweep job, or submitted with \"trace\": false)", job.ID)
	case !spec.cacheable():
		WriteError(w, http.StatusNotFound, false,
			"job %s ran on the real scheduler and the trace it retained did not survive the restart", job.ID)
	default:
		tr, err := s.replayTrace(r.Context(), job)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, false, "job %s: cannot serve its trace: %v", job.ID, err)
		}
		return tr
	}
	return nil
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.jobTrace(w, r)
	if tr == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = tr.WriteJSON(w)
}

func (s *Server) handleTraceSVG(w http.ResponseWriter, r *http.Request) {
	tr := s.jobTrace(w, r)
	if tr == nil {
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	_ = tr.WriteSVG(w, trace.SVGOptions{})
}

// Health is the /healthz document.
type Health struct {
	Status  string `json:"status"` // "ok" or "draining"
	Queued  int    `json:"queued"`
	Running int64  `json:"running"`
	Jobs    int    `json:"jobs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, Health{
		Status:  status,
		Queued:  s.queue.depthNow(),
		Running: s.metrics.running.Load(),
		Jobs:    jobs,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Metrics())
}
