package server

import (
	"context"
	"crypto/subtle"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Frame shipping (simcluster, DESIGN.md §15): when a consistent-hash ring
// change moves a capture key to a new owner, the coordinator tells the new
// owner where the frame already lives (X-Frame-Source on the submit), and
// the new owner pulls the encoded .dag frame over GET /internal/frames
// instead of re-running the scheduler. Both sides of the exchange are
// gated by the cluster's shared secret (Config.ClusterKey): the endpoint
// rejects unauthenticated reads, and a submit's X-Frame-Source hint (like
// its X-Done-Hint) is ignored unless the submit itself proved knowledge of
// the key — otherwise any client could steer the server into requesting
// attacker-chosen URLs.

// maxFrameBytes bounds a fetched frame body. The largest sweep DAGs (nt=40,
// ~22k tasks) encode to a few MB; 256 MB is far above any real frame while
// still bounding a misbehaving peer.
const maxFrameBytes = 256 << 20

// frameClient is the HTTP client for peer frame fetches. The timeout is
// generous — frames are a few MB on a local network — but finite, so a
// wedged peer degrades the job to a re-capture instead of hanging it.
var frameClient = &http.Client{Timeout: 30 * time.Second}

// clusterAuthed reports whether the request proved knowledge of the
// cluster secret. Always false when clustering is disabled (no key).
func (s *Server) clusterAuthed(r *http.Request) bool {
	if s.cfg.ClusterKey == "" {
		return false
	}
	got := r.Header.Get("X-Cluster-Key")
	return subtle.ConstantTimeCompare([]byte(got), []byte(s.cfg.ClusterKey)) == 1
}

// clusterHints are the URLs a coordinator attaches to a part submission.
// Both make the worker issue a request to an address it was handed, so both
// go through the one rule in clusterHintsFor.
type clusterHints struct {
	// frameSource (X-Frame-Source) is the base URL of a peer worker
	// believed to hold the job's captured .dag frame after a ring change:
	// on a full local cache miss the capture path fetches the frame from
	// there before falling back to a capture run.
	frameSource string
	// doneURL (X-Done-Hint) is the coordinator's base URL as this worker
	// registered with it, and worker (X-Done-Worker) the name it registered
	// under: when the job reaches a terminal state the worker says so on
	// POST <doneURL>/cluster/done (done.go).
	doneURL, worker string
}

// clusterHintsFor extracts a submit's cluster hints. They are honored only
// on cluster-authenticated requests (see the SSRF note above) and only for
// http/https URLs.
func (s *Server) clusterHintsFor(r *http.Request) clusterHints {
	if !s.clusterAuthed(r) {
		return clusterHints{}
	}
	peerURL := func(header string) string {
		u := r.Header.Get(header)
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return ""
		}
		return u
	}
	return clusterHints{
		frameSource: peerURL("X-Frame-Source"),
		doneURL:     peerURL("X-Done-Hint"),
		worker:      r.Header.Get("X-Done-Worker"),
	}
}

// frameQuery encodes a cache key (plus owning tenant) as the
// /internal/frames query string. Query parameters rather than a
// path-encoded key: the key's fields (policy in particular) can be empty
// or contain separator characters, and url.Values round-trips them
// losslessly.
func frameQuery(tenant string, key cacheKey) url.Values {
	q := url.Values{}
	q.Set("tenant", tenant)
	q.Set("algorithm", key.algorithm)
	q.Set("scheduler", key.scheduler)
	q.Set("policy", key.policy)
	q.Set("nt", strconv.Itoa(key.nt))
	q.Set("nb", strconv.Itoa(key.nb))
	q.Set("window", strconv.Itoa(key.window))
	return q
}

// handleFrame serves GET /internal/frames: the encoded .dag frame for one
// capture key, from memory or disk, to an authenticated cluster peer. 404
// both when clustering is disabled and when the frame is absent — a miss
// is not an error, it just means the peer re-captures locally — and 400
// for a key that does not parse, so a peer's bad request reads as one.
func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) {
	if s.cfg.ClusterKey == "" {
		WriteError(w, http.StatusNotFound, false, "clustering disabled")
		return
	}
	if !s.clusterAuthed(r) {
		WriteError(w, http.StatusUnauthorized, false, "bad or missing X-Cluster-Key")
		return
	}
	q := r.URL.Query()
	t := s.tenantNamed(q.Get("tenant"))
	if t == nil {
		WriteError(w, http.StatusNotFound, false, "no such tenant %q", q.Get("tenant"))
		return
	}
	// frameQuery always sends the three numbers; one that is missing or
	// malformed is the peer's bug, not a miss.
	var nums [3]int
	for i, name := range [...]string{"nt", "nb", "window"} {
		n, err := strconv.Atoi(q.Get(name))
		if err != nil {
			WriteError(w, http.StatusBadRequest, false, "%s=%q is not an integer", name, q.Get(name))
			return
		}
		nums[i] = n
	}
	key := cacheKey{
		algorithm: q.Get("algorithm"),
		scheduler: q.Get("scheduler"),
		policy:    q.Get("policy"),
		nt:        nums[0],
		nb:        nums[1],
		window:    nums[2],
	}
	raw := t.cache.frame(key)
	if len(raw) == 0 {
		WriteError(w, http.StatusNotFound, false, "no frame for key")
		return
	}
	s.metrics.framesServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	_, _ = w.Write(raw)
}

// fetchPeerFrame pulls the frame for key from the peer at base (the
// owning worker's URL, as hinted by the coordinator; "" when the submit
// carried no hint). Strictly best-effort: no peer or any failure —
// network, status, size — returns nil and the cache moves on to capturing.
// The bytes are returned as received; the cache validates them.
func (s *Server) fetchPeerFrame(ctx context.Context, base string, key cacheKey, tenant string) []byte {
	if base == "" {
		return nil
	}
	u := strings.TrimSuffix(base, "/") + "/internal/frames?" + frameQuery(tenant, key).Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil
	}
	req.Header.Set("X-Cluster-Key", s.cfg.ClusterKey)
	resp, err := frameClient.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxFrameBytes+1))
	if err != nil || len(raw) > maxFrameBytes {
		return nil
	}
	return raw
}
