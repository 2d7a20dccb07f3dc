// Package dsp implements the digital signal processing substrate the BHSS
// system is built on: complex vector arithmetic, power-of-two FFTs, spectral
// windows, FIR filter design (the low-pass and excision filters of the
// paper's eqs. (3)–(4)), overlap-save convolution and frequency mixing.
// Everything is written against the standard library only; the blocks mirror
// what the paper's GNU Radio flowgraph instantiated.
package dsp

import (
	"math"

	"bhss/internal/dsp/simd"
)

// Scale multiplies every element of x by a real gain, in place
// (component-wise: (re·g, im·g)).
func Scale(x []complex128, gain float64) {
	simd.ScaleReal(x, gain)
}

// AddTo adds src into dst element-wise: dst[i] += src[i]. The slices must
// have identical lengths; extra elements of the longer slice are ignored.
func AddTo(dst, src []complex128) {
	simd.AddTo(dst, src)
}

// Power returns the average power (mean |x|^2) of the signal.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	var p float64
	for _, v := range x {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	return p / float64(len(x))
}

// Energy returns the total energy (sum |x|^2) of the signal.
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// DotConj returns sum(a[i] * conj(b[i])) over the common prefix, the complex
// correlation inner product used by despreaders and preamble detectors.
//
//bhss:hotpath
func DotConj(a, b []complex128) complex128 {
	return simd.DotConj(a, b)
}

// Mix multiplies x in place by a complex exponential of the given normalized
// frequency (cycles per sample) and initial phase (radians), returning the
// phase after the last sample. Chaining calls with the returned phase keeps
// the oscillator continuous across buffers.
//
//bhss:hotpath
func Mix(x []complex128, freq, phase float64) float64 {
	// Use a recurrence with periodic renormalization to avoid per-sample
	// sincos calls while keeping the oscillator numerically on the unit
	// circle.
	step := complex(math.Cos(2*math.Pi*freq), math.Sin(2*math.Pi*freq))
	osc := complex(math.Cos(phase), math.Sin(phase))
	for i := range x {
		x[i] *= osc
		osc *= step
		if i&1023 == 1023 {
			mag := math.Hypot(real(osc), imag(osc))
			osc = complex(real(osc)/mag, imag(osc)/mag)
		}
	}
	return phase + 2*math.Pi*freq*float64(len(x))
}

// ArgMaxAbs returns the index of the sample with the largest magnitude, or
// -1 for an empty slice.
func ArgMaxAbs(x []complex128) int {
	idx := -1
	var m float64
	for i, v := range x {
		a := real(v)*real(v) + imag(v)*imag(v)
		if idx == -1 || a > m {
			m = a
			idx = i
		}
	}
	return idx
}

// Sinc returns sin(pi x)/(pi x) with Sinc(0) = 1.
func Sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}
