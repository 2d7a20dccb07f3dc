// Package flagged exercises every own-body rule of the hotpath analyzer:
// each line below allocates in a way the zero-alloc hot-path contract
// forbids.
package flagged

import "bhss/internal/obs"

var sink []complex128

type point struct{ x, y float64 }

// process is the hot path under test.
//
//bhss:hotpath
func process(dst, src []complex128) []complex128 {
	buf := make([]complex128, len(src)) // want "make allocates"
	_ = buf
	p := new(int) // want "new allocates"
	_ = p
	s := []float64{1, 2} // want "slice literal allocates"
	_ = s
	m := map[int]int{} // want "map literal allocates"
	_ = m
	q := &point{1, 2} // want "&composite literal allocates"
	_ = q
	f := func() {} // want "func literal allocates"
	f()
	go helper()    // want "go statement allocates"
	defer helper() // want "defer in hot path"
	var local []complex128
	sink = append(local, src...) // want "append may grow"
	copy(dst, src)
	return dst
}

// format exercises the string rules.
//
//bhss:hotpath
func format(a, b string) int {
	c := a + b       // want "string concatenation allocates"
	bs := []byte(a)  // want "conversion allocates"
	s2 := string(bs) // want "conversion allocates"
	return len(c) + len(s2)
}

// timedLoop defers an obs recording call inside a loop: the exemption for
// open-coded obs defers does not apply because the compiler heap-allocates
// one defer record per iteration.
//
//bhss:hotpath
func timedLoop(h *obs.Histogram, n int) {
	for i := 0; i < n; i++ {
		defer h.ObserveSince(obs.Start()) // want "deferred obs call inside a loop"
	}
}

var _ = timedLoop

func helper() {}
