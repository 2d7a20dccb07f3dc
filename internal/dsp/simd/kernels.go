package simd

// The exported kernels dispatch through these function variables, bound
// once at init (see simd.go). Every variable starts at the pure-Go
// canonical implementation; bind() swaps in the assembly version when the
// detected CPU supports it. BoxMuller alone calls its kernel directly.
var (
	windowInto func(dst, x []complex128, w []float64)                 = windowIntoGeneric
	mag2Accum  func(dst []float64, x []complex128)                    = mag2AccumGeneric
	modulate   func(out, chips []complex128, g []float64)             = modulateGeneric
	firReal    func(out, buf []complex128, h []float64)               = firRealGeneric
	demodulate func(out, x []complex128, g []float64, energy float64) = demodulateGeneric
	allFinite  func(x []complex128) bool                              = allFiniteGeneric
	span2      func(x []complex128)                                   = span2Generic
	unit4Fwd   func(x []complex128)                                   = unit4FwdGeneric
	unit4Inv   func(x []complex128)                                   = unit4InvGeneric
	radix4Fwd  func(x []complex128, h int, twA, twB []complex128)     = radix4FwdGeneric
	radix4Inv  func(x []complex128, h int, twA, twB []complex128)     = radix4InvGeneric
	packIQ32   func(dst []byte, src []complex128)                     = packIQ32Generic
	unpackIQ32 func(dst []complex128, src []byte)                     = unpackIQ32Generic
)

// WindowInto writes dst[i] = x[i] scaled component-wise by w[i] — the PSD
// estimator's per-segment windowing. All three slices are truncated to the
// shortest length; dst may alias x.
func WindowInto(dst, x []complex128, w []float64) {
	n := len(dst)
	if len(x) < n {
		n = len(x)
	}
	if len(w) < n {
		n = len(w)
	}
	if n == 0 {
		return
	}
	windowInto(dst[:n], x[:n], w[:n])
}

// Mag2Accum accumulates squared magnitudes: dst[i] += |x[i]|², over the
// common prefix. The periodogram accumulation inner loop.
func Mag2Accum(dst []float64, x []complex128) {
	n := len(dst)
	if len(x) < n {
		n = len(x)
	}
	if n == 0 {
		return
	}
	mag2Accum(dst[:n], x[:n])
}

// Modulate writes out[i*len(g)+k] = chips[i] scaled component-wise by
// g[k]: the pulse-shaping inner loop. len(out) must be at least
// len(chips)*len(g); len(g) must be positive.
func Modulate(out, chips []complex128, g []float64) {
	sps := len(g)
	if sps == 0 || len(chips) == 0 {
		return
	}
	_ = out[len(chips)*sps-1]
	modulate(out[:len(chips)*sps], chips, g)
}

// FIRReal runs a real-tap FIR over complex samples: out[i] =
// Σₜ h[t]·buf[i+k−1−t] on each rail, with k = len(h). buf holds k−1
// samples of history followed by the len(out) inputs, so it must be at
// least len(out)+k−1 long; len(h) must be positive.
//
// The kernel vectorizes across outputs, never across taps: every output
// starts from +0 and adds its taps in ascending t, the order of the scalar
// direct-form loop acc += complex(h[t], 0)·buf[i+k−1−t]. For finite input
// the result is bit-identical to that loop. Non-finite input may differ:
// the complex multiply also forms 0·re and 0·im, so an infinite component
// turns the other rail into NaN there, and never here.
func FIRReal(out, buf []complex128, h []float64) {
	k := len(h)
	if k == 0 || len(out) == 0 {
		return
	}
	_ = buf[len(out)+k-2]
	firReal(out, buf[:len(out)+k-1], h)
}

// BoxMuller writes dst[i] = (r·cos·gain, r·sin·gain) with r =
// √(−2·ln u[i]) and sin, cos = Sincos(2π·v[i]): one Box–Muller pair per
// element, over the common prefix.
//
// The AVX2 kernel repeats the scalar path's math.Log (log_amd64.s) and
// math.Sincos operation for operation, so for u in (0, 1] and v in
// [0, 1), where neither takes a special-case branch, every element is
// bit-identical to the Go expression; prng.Source draws its uniforms
// there. BoxMuller calls its kernel directly, not through a function
// variable as the other kernels do: an indirect call would make the
// caller's slices escape, and prng's stack scratch with them.
func BoxMuller(dst []complex128, u, v []float64, gain float64) {
	n := min(len(dst), len(u), len(v))
	if n == 0 {
		return
	}
	boxMuller(dst[:n], u[:n], v[:n], gain)
}

// Demodulate matched-filters samples with the real pulse g at one chip
// per len(g) samples: out[i] = Σₖ x[i*sps+k]·g[k] / energy, using the
// canonical even/odd-lane accumulation order. len(x) must be at least
// len(out)*len(g); len(g) must be positive.
func Demodulate(out, x []complex128, g []float64, energy float64) {
	sps := len(g)
	if sps == 0 || len(out) == 0 {
		return
	}
	_ = x[len(out)*sps-1]
	demodulate(out, x[:len(out)*sps], g, energy)
}

// AllFinite reports whether every component of x is finite (no NaN, no
// ±Inf) — the receiver's input-sanity scan.
func AllFinite(x []complex128) bool {
	if len(x) == 0 {
		return true
	}
	return allFinite(x)
}

// Span2 runs the twiddle-free span-2 FFT stage in place over pairs:
// x[i], x[i+1] = x[i]+x[i+1], x[i]-x[i+1]. len(x) must be even.
func Span2(x []complex128) {
	if len(x) < 2 {
		return
	}
	span2(x)
}

// Unit4Forward runs the first fused radix-4 pass (spans 2 and 4, unit
// twiddles, forward −i rotation) in place. len(x) must be a multiple of 4.
func Unit4Forward(x []complex128) {
	if len(x) < 4 {
		return
	}
	unit4Fwd(x)
}

// Unit4Inverse is Unit4Forward with the inverse +i rotation.
func Unit4Inverse(x []complex128) {
	if len(x) < 4 {
		return
	}
	unit4Inv(x)
}

// Radix4Forward runs one fused forward radix-4 pass over all blocks of x:
// quarters of length h combined with the span-2h twiddles twA and the
// span-4h lower-half twiddles twB. len(x) must be a multiple of 4h, h
// even, len(twA) and len(twB) at least h.
func Radix4Forward(x []complex128, h int, twA, twB []complex128) {
	if len(x) < 4*h || h < 2 {
		return
	}
	radix4Fwd(x, h, twA[:h], twB[:h])
}

// Radix4Inverse is Radix4Forward with conjugated twiddles and the inverse
// +i rotation.
func Radix4Inverse(x []complex128, h int, twA, twB []complex128) {
	if len(x) < 4*h || h < 2 {
		return
	}
	radix4Inv(x, h, twA[:h], twB[:h])
}

// PackIQ32 writes each sample of src to dst as two little-endian float32s,
// real part first: the wire codec's encoder. Each component is converted
// once, exactly as float32(x) converts it, so ±0, ±Inf, overflow to Inf,
// rounding to subnormals and NaN payloads match the scalar conversion.
// len(dst) must be at least 8·len(src).
func PackIQ32(dst []byte, src []complex128) {
	n := len(src)
	if n == 0 {
		return
	}
	_ = dst[8*n-1]
	packIQ32(dst[:8*n], src)
}

// UnpackIQ32 fills dst from the little-endian float32 pairs at the head of
// src, each component widened exactly as float64(f) widens it: the wire
// codec's decoder. A signalling NaN comes back quiet, as the scalar
// conversion returns it. len(src) must be at least 8·len(dst).
func UnpackIQ32(dst []complex128, src []byte) {
	n := len(dst)
	if n == 0 {
		return
	}
	_ = src[8*n-1]
	unpackIQ32(dst, src[:8*n])
}
