package core

import (
	"testing"

	"supersim/internal/rng"
)

// TestWorkerStreamsFollowTheDerivation pins the direct path's side of the
// replay = direct stream identity: worker w's stream is rng.New of
// seed ^ (0x9e3779b97f4a7c15 * (w+1)), written out here rather than taken
// from rng.WorkerSeed, for every worker of a run drawing in turn and for
// a worker id past them created last.
func TestWorkerStreamsFollowTheDerivation(t *testing.T) {
	const seed, workers, draws = 0xC0FFEE, 6, 1000
	const late = workers + 3
	pool := newRNGPool(seed)
	ref := func(w int) *rng.Source { return rng.New(seed ^ (0x9e3779b97f4a7c15 * (uint64(w) + 1))) }
	want := make([]*rng.Source, late+1)
	for w := 0; w < workers; w++ {
		want[w] = ref(w)
	}
	for i := 0; i < draws; i++ {
		for w := 0; w < workers; w++ {
			if got, exp := pool.forWorker(w).Uint64(), want[w].Uint64(); got != exp {
				t.Fatalf("worker %d draw %d: %#x, want %#x", w, i, got, exp)
			}
		}
	}
	want[late] = ref(late)
	for i := 0; i < draws; i++ {
		if got, exp := pool.forWorker(late).Uint64(), want[late].Uint64(); got != exp {
			t.Fatalf("worker %d (created last) draw %d: %#x, want %#x", late, i, got, exp)
		}
	}
}
