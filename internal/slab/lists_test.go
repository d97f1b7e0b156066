package slab

import (
	"slices"
	"testing"
)

func values(p *Lists, l List) []int32 {
	var out []int32
	for n := l.Front(); n != 0; n = p.Next(n) {
		out = append(out, p.Value(n))
	}
	return out
}

func TestListsKeepAppendOrderAcrossInterleavedLists(t *testing.T) {
	var p Lists
	var a, b List
	for i := int32(0); i < 5; i++ {
		p.Append(&a, i)
		p.Append(&b, 10+i)
	}
	if got := values(&p, a); !slices.Equal(got, []int32{0, 1, 2, 3, 4}) {
		t.Errorf("list a = %v, want 0..4 in append order", got)
	}
	if got := values(&p, b); !slices.Equal(got, []int32{10, 11, 12, 13, 14}) {
		t.Errorf("list b = %v, want 10..14 in append order", got)
	}
	if got := values(&p, List{}); got != nil {
		t.Errorf("the zero list holds %v", got)
	}
}

func TestListsReuseReleasedNodes(t *testing.T) {
	var p Lists
	var a, b List
	for i := int32(0); i < 4; i++ {
		p.Append(&a, i)
	}
	p.Append(&b, 99)
	p.Release(&a)
	if a != (List{}) {
		t.Errorf("a released list is %+v, want empty", a)
	}
	p.Release(&a) // releasing an empty list is a no-op
	for round := 0; round < 100; round++ {
		for i := int32(0); i < 4; i++ {
			p.Append(&a, i+int32(round))
		}
		if got := values(&p, a); !slices.Equal(got, []int32{int32(round), int32(round) + 1, int32(round) + 2, int32(round) + 3}) {
			t.Fatalf("round %d: a = %v", round, got)
		}
		p.Release(&a)
	}
	if p.Len() != 5 {
		t.Errorf("pool holds %d nodes after 100 rounds of four, want the 5 in use at once", p.Len())
	}
	if got := values(&p, b); !slices.Equal(got, []int32{99}) {
		t.Errorf("a list left alone changed to %v", got)
	}
	p.Reset()
	if p.Len() != 0 {
		t.Errorf("Reset left %d nodes", p.Len())
	}
	var c List
	p.Append(&c, 7)
	if got := values(&p, c); !slices.Equal(got, []int32{7}) || p.Len() != 1 {
		t.Errorf("after Reset: list %v over %d nodes, want [7] over 1", got, p.Len())
	}
}
