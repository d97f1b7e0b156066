// Fixture: the sanctioned hot-path shapes — index arithmetic, struct
// value writes into pre-sized storage, hotpath-to-hotpath calls, calls
// into the allocation-free std leaf packages (math, math/bits), and a
// reasoned allow on the cold resize branch.
package hotfix

import (
	"math"
	"math/bits"
)

type event struct {
	worker int
	start  float64
	end    float64
}

type plan struct {
	events []event
	clock  []float64
}

// execTask mirrors the replay inner loop: no allocation, only writes
// into storage the caller pre-sized.
//
//simlint:hotpath
func (p *plan) execTask(i, w int, dur float64) {
	start := p.clock[w]
	end := start + dur
	p.clock[w] = end
	p.events[i] = event{worker: w, start: start, end: end}
	p.bump(w)
}

//simlint:hotpath
func (p *plan) bump(w int) {
	p.clock[w] += 0
}

// grow may allocate: it is not annotated, and hotpath callers must
// justify calling it.
func (p *plan) grow(n int) {
	p.events = make([]event, n)
	p.clock = make([]float64, n)
}

//simlint:hotpath
func (p *plan) reset(n int) {
	if n > len(p.events) {
		//simlint:allow hotalloc — cold resize path; steady-state runs reuse the arrays
		p.grow(n)
	}
	for i := range p.clock {
		p.clock[i] = 0
	}
}

// highest mirrors the replay ready queue's level search: math and
// math/bits are pure arithmetic and need no annotation.
//
//simlint:hotpath
func highest(word uint64, x float64) int {
	return bits.Len64(word) - 1 + bits.TrailingZeros64(math.Float64bits(x))
}
