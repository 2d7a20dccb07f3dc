package dsp

// FFT computes the in-place decimation-in-time radix-2 discrete Fourier
// transform when len(x) is a power of two, and falls back to Bluestein's
// algorithm for other lengths (returning a new slice in that case; the
// returned slice is always the transform). The forward transform uses the
// e^{-j2πnk/N} convention with no normalization; IFFT applies 1/N.
//
// Both paths run off memoized FFTPlans, so repeated transforms of the same
// size pay no table setup; the power-of-two path additionally performs no
// allocation at all. Callers looping over one size can hold the plan
// directly via PlanFFT.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return x
	}
	if n&(n-1) == 0 {
		PlanFFT(n).Forward(x)
		return x
	}
	return bluestein(x, false)
}

// IFFT computes the inverse DFT with 1/N normalization. Like FFT it works in
// place for power-of-two lengths.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return x
	}
	if n&(n-1) == 0 {
		PlanFFT(n).Inverse(x)
		return x
	}
	out := bluestein(x, true)
	invN := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= invN
	}
	return out
}

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
