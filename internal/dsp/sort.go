package dsp

// SortFloats sorts a in place in ascending order using an in-place heap
// sort: O(n log n), no allocation, no dependency on package sort. It backs
// MedianFloats.
//
//bhss:hotpath
func SortFloats(a []float64) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(a, i, n)
	}
	for end := n - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDown(a, 0, end)
	}
}

func siftDown(a []float64, start, end int) {
	root := start
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && a[child+1] > a[child] {
			child++
		}
		if a[root] >= a[child] {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}

// MedianFloats returns the median of xs (0 for empty input) without
// modifying it.
func MedianFloats(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	SortFloats(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return 0.5 * (cp[n/2-1] + cp[n/2])
}

// QuantileSelect returns the q-quantile of a, the element at sorted index
// floor(q*n) (clamped to the slice), computed by in-place quickselect:
// O(n) expected instead of a full sort, at the price of partially
// reordering a.
//
//bhss:hotpath
func QuantileSelect(a []float64, q float64) float64 {
	if len(a) == 0 {
		return 0
	}
	idx := int(q * float64(len(a)))
	if idx >= len(a) {
		idx = len(a) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return selectFloat(a, idx)
}

// selectFloat returns the k-th smallest element of a (0-based), partially
// reordering a in place. Median-of-three pivots keep the selection
// deterministic (no RNG) while defeating the sorted and reverse-sorted
// inputs smoothed PSDs actually produce.
func selectFloat(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := partitionFloats(a, lo, hi)
		switch {
		case k < p:
			hi = p - 1
		case k > p:
			lo = p + 1
		default:
			return a[k]
		}
	}
	return a[k]
}

// partitionFloats partitions a[lo:hi+1] around a median-of-three pivot and
// returns the pivot's final index.
func partitionFloats(a []float64, lo, hi int) int {
	mid := int(uint(lo+hi) >> 1)
	if a[mid] < a[lo] {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi] < a[lo] {
		a[hi], a[lo] = a[lo], a[hi]
	}
	if a[hi] < a[mid] {
		a[hi], a[mid] = a[mid], a[hi]
	}
	a[mid], a[hi] = a[hi], a[mid]
	pivot := a[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if a[j] < pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[hi] = a[hi], a[i]
	return i
}

// MaxFloats returns the largest element of a (0 for an empty slice), the
// companion peak scan for QuantileSelect-based indicators.
func MaxFloats(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	m := a[0]
	for _, v := range a[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
