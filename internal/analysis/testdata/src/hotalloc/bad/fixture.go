// Fixture: every allocation class hotalloc recognizes, inside
// //simlint:hotpath functions.
package hotfix

import "strconv"

type point struct{ x, y int }

//simlint:hotpath
func allocs(xs []int, s string) {
	_ = make([]int, 8)   // want `make allocates`
	_ = new(int)         // want `new allocates`
	xs = append(xs, 1)   // want `append may grow`
	_ = []int{1, 2}      // want `slice literal`
	_ = map[string]int{} // want `map literal`
	_ = &point{}         // want `&composite literal`
	f := func() int { return 0 } // want `function literal`
	_ = f
	_ = s + "x"    // want `string concatenation`
	_ = []byte(s)  // want `string/\[\]byte conversion`
}

//simlint:hotpath
func boxes(v int) {
	sink(v) // want `interface argument boxes`
}

func sink(v any) {}

//simlint:hotpath
func variadics() {
	sum(1, 2, 3) // want `variadic call allocates`
}

func sum(xs ...int) int { return len(xs) }

//simlint:hotpath
func callsAllocating() {
	helper() // want `calls hotfix\.helper which may allocate`
}

// helper is not annotated, so its allocation is charged to hotpath
// callers through the call-graph fact.
func helper() []int {
	return make([]int, 4)
}

// Only math and math/bits are known allocation-free; any other callee
// outside the module is charged.
//
//simlint:hotpath
func callsStd(v int) int {
	return len(strconv.Itoa(v)) // want `calls strconv\.Itoa which may allocate`
}
