// Package simd provides the CPU-dispatched vector kernels behind the hot
// inner loops of the BHSS signal chain: the fused radix-4 FFT butterfly
// passes, the half-sine modulate/demodulate loops, PSD windowing and
// magnitude-squared accumulation, the streaming real-tap FIR that shapes the
// band-limited jammer, the Box–Muller transform behind every Gaussian noise
// draw, the receiver's input-sanity scan and the hub's float32 wire codec.
// DESIGN.md §13 records which benchmark workload pays for each; loops no
// workload measures stay plain Go in their callers.
//
// One kernel set is selected at package init — AVX2 (written in Go
// assembly) on amd64 CPUs that support it, and the pure-Go fallback
// everywhere else — and never changes afterwards. Setting BHSS_SIMD=off (or
// 0/false) in the environment forces the pure-Go fallback; BHSS_SIMD=auto
// (or unset) uses the best detected set.
//
// # Bit compatibility
//
// The accelerated and fallback paths produce bit-identical results; the
// golden-vector and parity tests pin this. Five rules make it possible:
//
//   - Element-wise kernels (WindowInto, Mag2Accum, Modulate, the FFT
//     butterfly passes) perform exactly the scalar sequence of IEEE-754
//     operations per element — the AVX2 code uses separate multiply and add
//     instructions (never FMA, which amd64 Go also never emits) and
//     VADDSUBPD for the complex cross terms, so each lane rounds exactly
//     like the scalar expression.
//   - Reduction kernels (Demodulate) define a canonical blocked
//     accumulation order — two lanes (even/odd elements), combined
//     pairwise at the end, with the odd tail folded into the even lanes
//     before the combine. The pure-Go fallback implements the identical
//     order, so both paths round identically even though the order differs
//     from a naive sequential sum.
//   - Sliding-window kernels (FIRReal) vectorize across outputs, never
//     across taps: each lane is one output that starts from +0 and adds
//     its taps in ascending order, so every output keeps the scalar
//     sequential tap order and matches a plain direct-form loop.
//   - Transcendental kernels (BoxMuller) copy the math routine the scalar
//     path runs operation for operation — on amd64 math.Log is
//     log_amd64.s, not log.go — with the branches turned into lane masks
//     and blends.
//   - Conversion kernels (PackIQ32, UnpackIQ32) do one IEEE conversion per
//     component, in the default rounding mode: VCVTPD2PS and VCVTPS2PD are
//     the vector forms of the CVTSD2SS and CVTSS2SD that float32(x) and
//     float64(f) compile to, so ±0, ±Inf, overflow to Inf, rounding to
//     float32 subnormals and NaN quieting all match.
//
// Real-gain kernels (WindowInto, Modulate) multiply the real and imaginary
// components directly instead of widening the gain to complex(g, 0); the
// results are bit-identical for all finite non-zero products and the
// component-wise form vectorizes.
package simd

import "os"

// Mode identifies a kernel set.
type Mode int

const (
	// Generic is the portable pure-Go kernel set.
	Generic Mode = iota
	// AVX2 is the amd64 assembly kernel set.
	AVX2
)

// String returns the kernel set name as reported in diagnostics.
func (m Mode) String() string {
	switch m {
	case AVX2:
		return "avx2"
	default:
		return "generic"
	}
}

var active Mode

// Active reports which kernel set was selected at init.
func Active() Mode { return active }

func init() {
	switch os.Getenv("BHSS_SIMD") {
	case "off", "0", "false":
		active = Generic
	default:
		active = detect()
	}
	if active != Generic {
		bind()
	}
}
