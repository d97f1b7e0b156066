// Package cluster implements the horizontal scale-out layer of the
// simulation service: a coordinator (cmd/simcoord) that fronts N simd
// workers, routing jobs by consistent hashing on the capture-cache key so
// repeated workloads land where their DAG frame is already cached, fanning
// a sweep's points across workers (their results depend on logical
// coordinates only — bench.ReplicaSeed — so the merged curve is
// bit-identical to a single-node run), shipping captured .dag frames between peers on routing
// misses, and re-dispatching work away from dead workers with
// fingerprint-checked exactly-once semantics.
//
// Everything inside the jobs the cluster schedules stays in virtual time;
// the coordinator itself legitimately lives on the wall clock (heartbeat
// liveness, dispatch latencies, HTTP timeouts) and is registered as a
// wall-clock package with simlint (analysis.WallClockPackages).
package cluster

import (
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring mapping string keys to node names. Each
// node owns vnodes points on a 64-bit hash circle; a key belongs to the
// node owning the first point at or clockwise of the key's hash. Adding or
// removing one node therefore remaps only the keys in the arcs its points
// cover — about 1/N of the keyspace — instead of rehashing everything,
// which is what keeps capture-cache locality intact when workers join or
// leave (TestRingMinimalRemapping pins the bound).
//
// Ring is not safe for concurrent use; the Coordinator guards its ring
// with its own mutex.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	nodes  map[string]struct{}
}

// ringPoint is one vnode: a position on the circle and its owner.
type ringPoint struct {
	hash uint64
	node string
}

// DefaultVnodes is the per-node vnode count: enough that per-node load
// imbalance stays in the few-percent range without making membership
// changes expensive.
const DefaultVnodes = 128

// NewRing builds an empty ring with the given vnode count per node
// (DefaultVnodes when <= 0).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]struct{})}
}

// fnv64 is FNV-1a over s — the same cheap deterministic hash family the
// repo's fingerprints use; no cryptographic strength needed, only spread.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Add inserts a node's vnodes. Adding a present node is a no-op.
func (r *Ring) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: fnv64(node + "#" + strconv.Itoa(i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break on the node name so the ring
		// layout is a pure function of the membership set.
		return r.points[i].node < r.points[j].node
	})
}

// Remove deletes a node and its vnodes. Removing an absent node is a
// no-op.
func (r *Ring) Remove(node string) {
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the node owning key, or false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := fnv64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the arc past the last hash
	}
	return r.points[i].node, true
}

// Nodes returns the member node names, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Has reports node membership.
func (r *Ring) Has(node string) bool {
	_, ok := r.nodes[node]
	return ok
}
