// Package slab cuts many small slices out of a few large allocations, for
// builders that hand out one short slice per task (argument lists,
// footprints, dependence edges) and would otherwise pay one heap object
// each.
package slab

// Carve returns an n-element slice cut from the free tail of *s. Its
// capacity is clipped to n, so appending to it reallocates instead of
// overwriting a neighbour. When the tail is too short a new chunk replaces
// *s — at least double the old one, so the number of chunks stays
// logarithmic in the total — and slices carved earlier keep the old chunk
// alive. The elements are zero unless the caller pre-filled the tail.
func Carve[T any](s *[]T, n int) []T {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(n, 2*cap(*s), 64))
	}
	lo := len(*s)
	*s = (*s)[:lo+n]
	return (*s)[lo : lo+n : lo+n]
}
