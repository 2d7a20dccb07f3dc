// Package clean holds the transitive-walk idioms that must stay silent:
// alloc-free helper chains, annotated callees as chain boundaries, and
// suppressed memoized construction.
package clean

var total float64

// Entry's whole transitive closure is alloc-free.
//
//bhss:hotpath
func Entry(dst []complex128) {
	accumulate(dst)
}

func accumulate(dst []complex128) {
	for _, v := range dst {
		total += real(v)
	}
}

// Boundary calls an annotated helper: the walk stops there — the helper's
// body is checked at its own declaration, and its edges are
// walked from there.
//
//bhss:hotpath
func Boundary(dst []complex128) {
	Scale(dst, 2)
}

// Scale is its own hot-path contract (and exported, so never redundant).
//
//bhss:hotpath
func Scale(dst []complex128, g float64) {
	for i := range dst {
		dst[i] *= complex(g, 0)
	}
}

var cache map[int][]float64

// Memoized allocates only on cache miss; the suppression documents it.
//
//bhss:hotpath
func Memoized(k int) []float64 {
	if s, ok := cache[k]; ok {
		return s
	}
	//bhss:allow(hotpath) memoized: the build runs once per k, then every hop hits the cache
	return build(k)
}

func build(k int) []float64 {
	s := make([]float64, k)
	cache[k] = s
	return s
}
