package cluster

import (
	"strings"
	"testing"

	"supersim/internal/bench"
	"supersim/internal/core"
	"supersim/internal/server"
)

// TestMergePartsRefusesAnythingButTheSweep: the merge fingerprints a curve
// only when the parts hold every point of the spec's series exactly once
// with the spec's replica count; a duplicated, missing or short point is a
// failed dispatch, not a result.
func TestMergePartsRefusesAnythingButTheSweep(t *testing.T) {
	spec := server.JobSpec{Kind: "sweep", Algorithm: "cholesky", Scheduler: "quark", NB: 8, MaxNT: 6, Reps: 3, Workers: 4, Seed: 5}
	slice := func(offset, stride, reps int) []bench.SweepPoint {
		t.Helper()
		points, _, err := bench.SweepParallel(spec.Scheduler, spec.Algorithm, spec.NB, spec.MaxNT, spec.Workers, bench.SweepOptions{
			Reps: reps, Model: core.FixedModel(1e-3), Seed: spec.Seed, PointOffset: offset, PointStride: stride,
		})
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	full := slice(0, 0, spec.Reps)
	even, odd := slice(0, 2, spec.Reps), slice(1, 2, spec.Reps)
	for _, tc := range []struct {
		name    string
		curves  [][]bench.SweepPoint
		wantErr string // "" = merges to the single-node fingerprint
	}{
		{"two slices", [][]bench.SweepPoint{even, odd}, ""},
		{"slices in any order", [][]bench.SweepPoint{odd, even}, ""},
		{"three slices", [][]bench.SweepPoint{slice(2, 3, spec.Reps), slice(0, 3, spec.Reps), slice(1, 3, spec.Reps)}, ""},
		{"duplicated nt", [][]bench.SweepPoint{even, append(odd[:len(odd):len(odd)], even[0])}, "points"},
		{"one slice twice", [][]bench.SweepPoint{even[:2], even}, "nt="},
		{"missing nt", [][]bench.SweepPoint{even, odd[1:]}, "points"},
		{"wrong replica count", [][]bench.SweepPoint{even, slice(1, 2, spec.Reps+1)}, "replicas"},
		{"part without a curve", [][]bench.SweepPoint{even, nil}, "without a curve"},
	} {
		parts := make([]*part, len(tc.curves))
		for i, curve := range tc.curves {
			parts[i] = &part{status: partDone, result: server.SweepResult(curve)}
		}
		res, err := mergeParts(&spec, parts)
		switch {
		case tc.wantErr == "" && (err != nil || res.Fingerprint != server.SweepFingerprint(full)):
			t.Errorf("%s: merged to %+v, %v; want the single-node fingerprint %s", tc.name, res, err, server.SweepFingerprint(full))
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: merged to %+v, %v; want an error naming %q", tc.name, res, err, tc.wantErr)
		}
	}
}
