package cluster

import (
	"fmt"
	"sort"

	"supersim/internal/bench"
	"supersim/internal/server"
	"supersim/internal/workload"
)

// mergeParts assembles a dispatch's final result from its completed
// parts. A single part passes through verbatim. A fanned-out sweep's parts
// each hold whole points — a point's makespans and aggregates are a pure
// function of (seed, NT, replica), never of placement — so the merge only
// puts them in NT order and refuses anything but the spec's own series
// (every NT of PerfSweep once, the spec's replica count at each). The
// result is assembled by the worker's own code (server.SweepResult), so a
// fanned-out dispatch's summary and fingerprint are bit-identical to a
// single-node job's.
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
		points = append(points, p.result.Sweep...)
	}
	sort.SliceStable(points, func(i, j int) bool { return points[i].NT < points[j].NT })
	want := workload.PerfSweep(spec.NB, spec.MaxNT)
	if len(points) != len(want) {
		return nil, fmt.Errorf("cluster: sweep parts hold %d points, the sweep has %d", len(points), len(want))
	}
	for i, pt := range points {
		if pt.NT != want[i].NT {
			return nil, fmt.Errorf("cluster: sweep parts hold nt=%d where the sweep has nt=%d", pt.NT, want[i].NT)
		}
		if len(pt.Makespans) != spec.Reps {
			return nil, fmt.Errorf("cluster: nt=%d came back with %d replicas, want %d", pt.NT, len(pt.Makespans), spec.Reps)
		}
	}
	return server.SweepResult(points), nil
}
