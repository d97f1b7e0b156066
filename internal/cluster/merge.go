package cluster

import (
	"fmt"

	"supersim/internal/bench"
	"supersim/internal/server"
)

// mergeParts assembles a dispatch's final result from its completed
// parts. A single part passes through verbatim; a fanned-out sweep is
// merged entry-wise: part (offset, stride) owns exactly the replicas
// rep % stride == offset of every point, and because replica seeds are
// pure functions of (base seed, NT, rep) — never of placement — the
// merged vector is bit-identical to a single-node run of the same spec.
// Per-point aggregates are recomputed over the full vector and the
// result is assembled by the worker's own code (server.SweepResult), so a
// fanned-out dispatch's summary and fingerprint are directly comparable
// to a single-node job's.
func mergeParts(spec *server.JobSpec, parts []*part) (*server.JobResult, error) {
	if len(parts) == 1 {
		if parts[0].result == nil {
			return nil, fmt.Errorf("cluster: part completed without a result")
		}
		return parts[0].result, nil
	}

	var points []bench.SweepPoint
	for _, p := range parts {
		if p.result == nil || len(p.result.Sweep) == 0 {
			return nil, fmt.Errorf("cluster: sweep part completed without a curve")
		}
		if points == nil {
			// Deep-copy the first part's curve as the merge scaffold.
			points = make([]bench.SweepPoint, len(p.result.Sweep))
			copy(points, p.result.Sweep)
			for i := range points {
				points[i].Makespans = make([]float64, len(p.result.Sweep[i].Makespans))
			}
		}
		if len(p.result.Sweep) != len(points) {
			return nil, fmt.Errorf("cluster: sweep parts disagree on point count (%d vs %d)",
				len(p.result.Sweep), len(points))
		}
		for i := range points {
			src := p.result.Sweep[i].Makespans
			if len(src) != len(points[i].Makespans) {
				return nil, fmt.Errorf("cluster: sweep parts disagree on replica count at nt=%d", points[i].NT)
			}
			for rep := p.repOffset; rep < len(src); rep += p.repStride {
				points[i].Makespans[rep] = src[rep]
			}
		}
	}

	for i := range points {
		points[i].Summarize(spec.Algorithm, points[i].Makespans)
	}
	return server.SweepResult(points), nil
}
