package cluster

import (
	"crypto/subtle"
	"encoding/json"
	"net/http"

	"supersim/internal/server"
)

// routes builds the coordinator mux: the worker control plane under
// /cluster/ (authenticated by the shared key) and a client-facing job API
// mirroring the worker's own (submit, get, list, metrics, health).
func (c *Coordinator) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/register", c.handleRegister)
	mux.HandleFunc("POST /cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /cluster/done", c.handleDone)
	mux.HandleFunc("POST /jobs", c.handleSubmit)
	mux.HandleFunc("GET /jobs", c.handleList)
	mux.HandleFunc("GET /jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	return mux
}

// authed gates the worker control plane on the shared cluster key.
func (c *Coordinator) authed(r *http.Request) bool {
	got := r.Header.Get("X-Cluster-Key")
	return subtle.ConstantTimeCompare([]byte(got), []byte(c.cfg.Key)) == 1
}

// RegisterRequest is a worker's registration body. Coordinator is the base
// URL the worker reached this coordinator at: the address its done hints
// go back to (optional; without it the worker's parts are found finished
// on the tracker's tick).
type RegisterRequest struct {
	Name        string `json:"name"`
	URL         string `json:"url"`
	Coordinator string `json:"coordinator,omitempty"`
}

// RegisterResponse tells the worker its heartbeat contract.
type RegisterResponse struct {
	HeartbeatMS int64 `json:"heartbeat_ms"`
	TimeoutMS   int64 `json:"timeout_ms"`
}

const maxBodyBytes = 1 << 20

// controlBody admits one worker control-plane request: it checks the
// cluster key and decodes the JSON body into v, answering 401 or 400 itself
// and reporting false when either fails.
func (c *Coordinator) controlBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	if !c.authed(r) {
		server.WriteError(w, http.StatusUnauthorized, false, "bad or missing X-Cluster-Key")
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		server.WriteError(w, http.StatusBadRequest, false, "decoding %s: %v", what, err)
		return false
	}
	return true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !c.controlBody(w, r, "registration", &req) {
		return
	}
	if req.Name == "" || req.URL == "" {
		server.WriteError(w, http.StatusBadRequest, false, "registration needs name and url")
		return
	}
	c.register(req.Name, req.URL, req.Coordinator)
	server.WriteJSON(w, http.StatusOK, RegisterResponse{
		HeartbeatMS: c.cfg.HeartbeatInterval.Milliseconds(),
		TimeoutMS:   c.cfg.HeartbeatTimeout.Milliseconds(),
	})
}

// HeartbeatRequest is a worker's liveness proof.
type HeartbeatRequest struct {
	Name string `json:"name"`
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !c.controlBody(w, r, "heartbeat", &req) {
		return
	}
	if !c.heartbeat(req.Name) {
		// Unknown worker — a restarted coordinator lost the registration.
		// 404 tells the agent to re-register.
		server.WriteError(w, http.StatusNotFound, true, "unknown worker %q; re-register", req.Name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDone takes a worker's done hint (server.DoneHint): one of its jobs
// reached a terminal state. The hint changes no dispatch — it wakes the
// tracker, which fetches the job view itself — so a forged, repeated or
// stale one costs a pass that finds nothing new.
func (c *Coordinator) handleDone(w http.ResponseWriter, r *http.Request) {
	var hint server.DoneHint
	if !c.controlBody(w, r, "done hint", &hint) {
		return
	}
	if hint.Worker == "" || hint.JobID == "" {
		server.WriteError(w, http.StatusBadRequest, false, "done hint needs worker and job_id")
		return
	}
	c.doneHints.Add(1)
	c.kickTracker()
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var spec server.JobSpec
	if err := dec.Decode(&spec); err != nil {
		server.WriteError(w, http.StatusBadRequest, false, "decoding job spec: %v", err)
		return
	}
	auth := [2]string{r.Header.Get("X-API-Key"), r.Header.Get("Authorization")}
	// submit journals the acceptance through the store's AppendSync before
	// returning — the 202 below never outruns the fsync.
	view, err := c.submit(spec, auth)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, false, "%v", err)
		return
	}
	w.Header().Set("Location", "/jobs/"+view.ID)
	server.WriteJSON(w, http.StatusAccepted, view)
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	d, ok := c.dispatches[r.PathValue("id")]
	var view DispatchView
	if ok {
		view = c.dispatchView(d)
	}
	c.mu.Unlock()
	if !ok {
		server.WriteError(w, http.StatusNotFound, false, "no such dispatch %q", r.PathValue("id"))
		return
	}
	server.WriteJSON(w, http.StatusOK, view)
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	ds := c.inOrderLocked()
	views := make([]DispatchView, len(ds))
	for i, d := range ds {
		views[i] = c.dispatchView(d)
	}
	c.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.Metrics())
}

// Health is the coordinator's /healthz document.
type Health struct {
	Status     string         `json:"status"`
	Workers    []WorkerStatus `json:"workers"`
	Live       int            `json:"live"`
	Dispatches int            `json:"dispatches"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok", Workers: c.workerStatuses()}
	for _, ws := range h.Workers {
		if ws.Live {
			h.Live++
		}
	}
	c.mu.Lock()
	h.Dispatches = len(c.dispatches)
	c.mu.Unlock()
	if h.Live == 0 {
		h.Status = "no-workers"
	}
	server.WriteJSON(w, http.StatusOK, h)
}
