package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TenantConfig declares one API-key tenant: its identity, its admission
// budget (token-bucket rate + queue share), its fairness weight in the
// worker pool, and its private capture-cache budget. Loaded from the
// -tenants-file JSON (LoadTenants) or passed programmatically via
// Config.Tenants.
type TenantConfig struct {
	// Name identifies the tenant in job views, metrics and logs.
	Name string `json:"name"`
	// Key is the API key presented in X-API-Key (or Authorization: Bearer).
	// A tenant with an empty key is the anonymous tenant, matched when a
	// request carries no key; at most one is allowed.
	Key string `json:"key,omitempty"`
	// RatePerSec is the sustained submission rate of the tenant's token
	// bucket (0 = unlimited).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket depth (default: ceil(RatePerSec), min 1).
	Burst int `json:"burst,omitempty"`
	// QueueShare is the fraction of the server's queue depth this tenant
	// may occupy (default 1.0 — the whole queue). Submissions beyond the
	// share are rejected 429 even when the global queue has room.
	QueueShare float64 `json:"queue_share,omitempty"`
	// Weight is the tenant's deficit-round-robin quantum: per scheduling
	// round an active tenant accumulates Weight cost units of service
	// credit (default 1). Worker share under contention is proportional.
	Weight int `json:"weight,omitempty"`
	// CacheCapacity bounds the tenant's private capture-cache partition
	// (DAG count; default: the server's CacheCapacity).
	CacheCapacity int `json:"cache_capacity,omitempty"`
}

// fill normalizes a tenant config against the server config.
func (tc *TenantConfig) fill(cfg *Config) {
	if tc.Burst < 1 && tc.RatePerSec > 0 {
		tc.Burst = int(math.Ceil(tc.RatePerSec))
		if tc.Burst < 1 {
			tc.Burst = 1
		}
	}
	if tc.QueueShare <= 0 || tc.QueueShare > 1 {
		tc.QueueShare = 1
	}
	if tc.Weight < 1 {
		tc.Weight = 1
	}
	if tc.CacheCapacity < 1 {
		tc.CacheCapacity = cfg.CacheCapacity
	}
}

// LoadTenants reads a tenants file: either a bare JSON array of
// TenantConfig or an object {"tenants": [...]}.
func LoadTenants(path string) ([]TenantConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: reading tenants file: %w", err)
	}
	var doc struct {
		Tenants []TenantConfig `json:"tenants"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Tenants == nil {
		var arr []TenantConfig
		if aerr := json.Unmarshal(raw, &arr); aerr != nil {
			return nil, fmt.Errorf("server: parsing tenants file %s: %w", path, err)
		}
		doc.Tenants = arr
	}
	if err := validateTenants(doc.Tenants); err != nil {
		return nil, err
	}
	return doc.Tenants, nil
}

// validateTenants rejects duplicate names/keys and anonymous ambiguity.
func validateTenants(tcs []TenantConfig) error {
	names := map[string]bool{}
	keys := map[string]bool{}
	anon := 0
	for i, tc := range tcs {
		if tc.Name == "" {
			return fmt.Errorf("server: tenant %d has no name", i)
		}
		if names[tc.Name] {
			return fmt.Errorf("server: duplicate tenant name %q", tc.Name)
		}
		names[tc.Name] = true
		if tc.Key == "" {
			anon++
			if anon > 1 {
				return fmt.Errorf("server: more than one anonymous tenant (empty key)")
			}
			continue
		}
		if keys[tc.Key] {
			return fmt.Errorf("server: tenant %q reuses another tenant's key", tc.Name)
		}
		keys[tc.Key] = true
	}
	return nil
}

// tenant is the runtime state of one configured tenant.
type tenant struct {
	cfg      TenantConfig
	bucket   tokenBucket
	cache    *captureCache // private capture-cache partition
	maxQueue int           // resolved queue-share bound (jobs)
	quantum  int           // DRR credit per round (cost units)

	// DRR state: both fields are touched only with the owning drrQueue's
	// mu held (a cross-struct lock, outside the guarded analyzer's scope).
	queue   []*Job
	deficit int

	m tenantMetrics
}

// buildTenants resolves the configured tenants (or the default anonymous
// tenant) into runtime state.
func buildTenants(cfg *Config) ([]*tenant, error) {
	tcs := cfg.Tenants
	if len(tcs) == 0 {
		tcs = []TenantConfig{{Name: "default"}}
	}
	if err := validateTenants(tcs); err != nil {
		return nil, err
	}
	out := make([]*tenant, len(tcs))
	for i, tc := range tcs {
		tc.fill(cfg)
		maxQueue := int(tc.QueueShare * float64(cfg.QueueDepth))
		if maxQueue < 1 {
			maxQueue = 1
		}
		// With a data dir, each tenant's capture cache gets a persistent
		// level under <data-dir>/dags/<tenant>/ so its working set survives
		// restarts. newDagDisk returns nil (memory-only) without one.
		var disk *dagDisk
		if cfg.DataDir != "" {
			disk = newDagDisk(filepath.Join(cfg.DataDir, "dags", pathSafe(tc.Name)))
		}
		out[i] = &tenant{
			cfg:      tc,
			cache:    newCaptureCache(tc.CacheCapacity, disk),
			maxQueue: maxQueue,
			quantum:  tc.Weight,
		}
		out[i].bucket.init(tc.RatePerSec, float64(tc.Burst))
	}
	return out, nil
}

// tenantFor resolves the request's tenant from its API key (X-API-Key or
// Authorization: Bearer). With no key, the anonymous tenant serves the
// request; with an unknown key, or no key when every tenant requires one,
// it returns nil.
func (s *Server) tenantFor(r *http.Request) *tenant {
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			key = strings.TrimPrefix(auth, "Bearer ")
		}
	}
	if key == "" {
		return s.anonTenant
	}
	return s.tenantsByKey[key]
}

// tenantNamed returns the tenant by name, or nil.
func (s *Server) tenantNamed(name string) *tenant {
	for _, t := range s.tenants {
		if t.cfg.Name == name {
			return t
		}
	}
	return nil
}

// tenantMetrics are one tenant's lifecycle counters plus its queue-wait
// latency histogram (per-tenant histograms in /metrics).
type tenantMetrics struct {
	submitted   atomic.Uint64
	done        atomic.Uint64
	failed      atomic.Uint64
	dead        atomic.Uint64
	rejected    atomic.Uint64 // queue-share or global-queue refusals
	rateLimited atomic.Uint64 // token-bucket refusals
	retries     atomic.Uint64 // transient-failure re-runs scheduled

	queueWait latencySeries // submit to worker pickup
}

// tokenBucket is a wall-clock token bucket: rate tokens/second refill up
// to burst. rate <= 0 disables limiting. The server package is registered
// wall-clock with simlint; admission rate limiting is service-boundary
// time by design.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64   // tokens per second; <= 0 = unlimited
	burst  float64   // guarded-by: mu
	tokens float64   // guarded-by: mu
	last   time.Time // guarded-by: mu — last refill
}

// init seeds the bucket full.
//
//simlint:allow guarded — construction precedes publication: called once from buildTenants before the tenant is shared
func (b *tokenBucket) init(rate, burst float64) {
	b.rate = rate
	b.burst = burst
	b.tokens = burst
}

// take consumes one token if available. When the bucket is empty it
// reports how long until the next token refills — the base of the
// jittered Retry-After hint.
func (b *tokenBucket) take() (ok bool, wait time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now() //simlint:allow vclock — admission rate limiting is wall-clock by design
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}
