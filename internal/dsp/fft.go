package dsp

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFTShiftFloat reorders a real-valued spectrum (e.g. a PSD estimate) so
// that the zero-frequency bin sits at the center, returning a new slice.
// For odd lengths the extra bin goes to the front half, matching the numpy
// convention.
func FFTShiftFloat(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	half := (n + 1) / 2
	copy(out, x[half:])
	copy(out[n-half:], x[:half])
	return out
}

// BinFrequencies returns the normalized frequency (cycles/sample, in
// [-0.5, 0.5)) of each bin of an n-point FFT after FFTShiftFloat ordering.
func BinFrequencies(n int) []float64 {
	out := make([]float64, n)
	half := (n + 1) / 2
	idx := 0
	for k := half; k < n; k++ {
		out[idx] = float64(k-n) / float64(n)
		idx++
	}
	for k := 0; k < half; k++ {
		out[idx] = float64(k) / float64(n)
		idx++
	}
	return out
}
