package slab

// List is one list of a Lists pool: 1 + the index of its first and of its
// last node, 0 while it is empty. The zero List is empty. It is two int32s,
// so a struct can carry one where a slice header would cost 24 bytes and a
// heap object.
type List struct{ head, tail int32 }

// Front is the list's first node, 0 if it is empty. Walk a list with
//
//	for n := l.Front(); n != 0; n = p.Next(n) { v := p.Value(n) }
//
// which visits the values in the order they were appended.
func (l List) Front() int32 { return l.head }

// Lists keeps many int32 lists in one node array. A node holds no pointer,
// so the garbage collector never scans the array, and a released list's
// nodes go onto a free list that later appends reuse: the array grows to
// the largest number of nodes in use at one time, not to the number ever
// appended. The zero value is ready to use. Not safe for concurrent use.
type Lists struct {
	nodes []listNode
	free  int32 // first free node, 0 if none; the rest are linked by next
}

type listNode struct{ val, next int32 }

// Append adds v at the tail of l.
func (p *Lists) Append(l *List, v int32) {
	n := p.free
	if n != 0 {
		p.free = p.nodes[n-1].next
		p.nodes[n-1] = listNode{val: v}
	} else {
		p.nodes = append(p.nodes, listNode{val: v})
		n = int32(len(p.nodes))
	}
	if l.tail == 0 {
		l.head = n
	} else {
		p.nodes[l.tail-1].next = n
	}
	l.tail = n
}

// Next is the node after n in its list, 0 at the tail.
func (p *Lists) Next(n int32) int32 { return p.nodes[n-1].next }

// Value is the value node n holds.
func (p *Lists) Value(n int32) int32 { return p.nodes[n-1].val }

// Release empties l and puts its nodes on the free list, in constant time.
func (p *Lists) Release(l *List) {
	if l.head == 0 {
		return
	}
	p.nodes[l.tail-1].next = p.free
	p.free = l.head
	*l = List{}
}

// Reset drops every list at once and keeps the node array for reuse. Lists
// that were not released must not be used afterwards.
func (p *Lists) Reset() {
	p.nodes = p.nodes[:0]
	p.free = 0
}

// Len is the number of nodes the pool holds, in use or free: the most that
// were in use at one time since the last Reset.
func (p *Lists) Len() int { return len(p.nodes) }
