// Package simd provides the CPU-dispatched vector kernels behind the hot
// inner loops of the BHSS signal chain: complex element-wise multiply for
// overlap-save convolution, the fused radix-4 FFT butterfly passes, the
// half-sine modulate/demodulate loops, PSD magnitude-squared accumulation,
// the streaming real-tap FIR that shapes the band-limited jammer, the
// Box–Muller transform behind every Gaussian noise draw, and the
// correlation reductions used by acquisition and despreading.
//
// One kernel set is selected at package init — AVX2 (written in Go
// assembly) on amd64, NEON on arm64 for the kernels whose rounding is
// unambiguous there, and a pure-Go fallback everywhere else — and never
// changes afterwards. Setting BHSS_SIMD=off (or 0/false) in the
// environment forces the pure-Go fallback; BHSS_SIMD=auto (or unset) uses
// the best detected set.
//
// # Bit compatibility
//
// The accelerated and fallback paths produce bit-identical results; the
// golden-vector and parity tests pin this. Two rules make it possible:
//
//   - Element-wise kernels (CMulTo, WindowInto, Mag2Accum, Modulate,
//     Pow4Into, the FFT butterfly passes) perform exactly the scalar
//     sequence of IEEE-754 operations per element — the AVX2 code uses
//     separate multiply and add instructions (never FMA, which amd64 Go
//     also never emits) and VADDSUBPD for the complex cross terms, so each
//     lane rounds exactly like the scalar expression.
//   - Reduction kernels (Demodulate, DotConj, CorrReal, SumFloats) define
//     a canonical blocked accumulation order — two complex lanes (even/odd
//     elements) or four float lanes, combined pairwise at the end, with
//     the odd tail folded into the even lanes before the combine. The
//     pure-Go fallback implements the identical order, so both paths
//     round identically even though the order differs from a naive
//     sequential sum.
//   - Sliding-window kernels (FIRReal) vectorize across outputs, never
//     across taps: each lane is one output that starts from +0 and adds
//     its taps in ascending order, so every output keeps the scalar
//     sequential tap order and matches a plain direct-form loop.
//   - Transcendental kernels (BoxMuller) copy the math routine the scalar
//     path runs operation for operation — on amd64 math.Log is
//     log_amd64.s, not log.go — with the branches turned into lane masks
//     and blends. They stay generic on arm64.
//
// Real-gain kernels (ScaleReal, WindowInto, Modulate) multiply the real
// and imaginary components directly instead of widening the gain to
// complex(g, 0); the results are bit-identical for all finite non-zero
// products and the component-wise form vectorizes on every target.
package simd

import "os"

// Mode identifies a kernel set.
type Mode int

const (
	// Generic is the portable pure-Go kernel set.
	Generic Mode = iota
	// AVX2 is the amd64 assembly kernel set.
	AVX2
	// NEON is the arm64 assembly kernel set (partial: kernels whose
	// arm64 rounding is unambiguous; the rest dispatch to Generic).
	NEON
)

// String returns the kernel set name as reported in diagnostics.
func (m Mode) String() string {
	switch m {
	case AVX2:
		return "avx2"
	case NEON:
		return "neon"
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
		bind(active)
	}
}
