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

// RegisterRequest is a worker's registration body.
type RegisterRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// RegisterResponse tells the worker its heartbeat contract.
type RegisterResponse struct {
	HeartbeatMS int64 `json:"heartbeat_ms"`
	TimeoutMS   int64 `json:"timeout_ms"`
}

const maxBodyBytes = 1 << 20

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if !c.authed(r) {
		server.WriteError(w, http.StatusUnauthorized, false, "bad or missing X-Cluster-Key")
		return
	}
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, false, "decoding registration: %v", err)
		return
	}
	if req.Name == "" || req.URL == "" {
		server.WriteError(w, http.StatusBadRequest, false, "registration needs name and url")
		return
	}
	c.register(req.Name, req.URL)
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
	if !c.authed(r) {
		server.WriteError(w, http.StatusUnauthorized, false, "bad or missing X-Cluster-Key")
		return
	}
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, false, "decoding heartbeat: %v", err)
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
