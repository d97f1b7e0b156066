// Package slab cuts many small slices out of a few large allocations, for
// builders that hand out one short slice per task (argument lists,
// footprints, dependence edges) and would otherwise pay one heap object
// each.
package slab

import "math"

// Carve returns an n-element slice cut from the free tail of *s. Its
// capacity is clipped to n, so appending to it reallocates instead of
// overwriting a neighbour. When the tail is too short a new chunk replaces
// *s — at least double the old one, so the number of chunks stays
// logarithmic in the total — and slices carved earlier keep the old chunk
// alive. The elements are zero unless the caller pre-filled the tail.
func Carve[T any](s *[]T, n int) []T {
	return CarveChunk(s, n, math.MaxInt)
}

// CarveChunk is Carve with the doubling capped at chunk elements (a chunk
// is larger only for a carving that would not fit one): for a stream of
// unknown length whose early carvings die while it is still running — the
// tasks of a windowed scheduler run — so that a short stream still gets
// small chunks and a long one releases memory chunk by chunk as it
// advances, instead of holding half of it in the latest, doubled chunk.
func CarveChunk[T any](s *[]T, n, chunk int) []T {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(n, min(max(2*cap(*s), 64), chunk)))
	}
	lo := len(*s)
	*s = (*s)[:lo+n]
	return (*s)[lo : lo+n : lo+n]
}
