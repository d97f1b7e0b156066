package slab

import "testing"

func TestCarveIsolatesNeighbours(t *testing.T) {
	s := make([]int, 0, 8)
	a := Carve(&s, 3)
	b := Carve(&s, 3)
	if len(a) != 3 || cap(a) != 3 || len(b) != 3 || cap(b) != 3 {
		t.Fatalf("carved len/cap %d/%d and %d/%d, want 3/3", len(a), cap(a), len(b), cap(b))
	}
	for i := range a {
		a[i], b[i] = 1, 2
	}
	a = append(a, 9) // must reallocate, not spill into b
	if b[0] != 2 {
		t.Errorf("append to one carving overwrote its neighbour: %v", b)
	}
	if &a[0] == &s[0] {
		t.Error("append past a clipped capacity stayed in the slab")
	}
}

func TestCarveStartsNewChunkWhenFull(t *testing.T) {
	var s []int
	first := Carve(&s, 2)
	first[0], first[1] = 7, 8
	chunk := cap(s)
	for i := 0; i < chunk; i++ { // overflow the first chunk
		Carve(&s, 1)[0] = i
	}
	if cap(s) < 2*chunk {
		t.Errorf("second chunk has capacity %d, want at least double %d", cap(s), chunk)
	}
	if first[0] != 7 || first[1] != 8 {
		t.Errorf("earlier carving changed after a new chunk: %v", first)
	}
	if big := Carve(&s, 10*cap(s)); len(big) != cap(big) {
		t.Errorf("oversized carve got len %d cap %d", len(big), cap(big))
	}
	if got := Carve(&s, 0); len(got) != 0 {
		t.Errorf("empty carve has len %d", len(got))
	}
}

func TestCarveChunkCapsTheDoubling(t *testing.T) {
	var s []int
	first := CarveChunk(&s, 3, 256)
	first[0] = 7
	if cap(s) != 64 {
		t.Errorf("first chunk has capacity %d, want the 64-element floor", cap(s))
	}
	for i := 0; i < 400; i++ {
		CarveChunk(&s, 3, 256)[0] = i
		if cap(s) > 256 {
			t.Fatalf("after %d carvings a chunk has capacity %d, want at most 256", i+2, cap(s))
		}
	}
	if cap(s) != 256 {
		t.Errorf("chunks settled at capacity %d, want 256", cap(s))
	}
	if first[0] != 7 {
		t.Errorf("earlier carving changed after new chunks: %v", first)
	}
	if big := CarveChunk(&s, 1000, 256); len(big) != 1000 || cap(big) != 1000 {
		t.Errorf("oversized carve got len %d cap %d, want 1000/1000", len(big), cap(big))
	}
}
