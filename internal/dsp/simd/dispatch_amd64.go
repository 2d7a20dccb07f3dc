//go:build amd64

package simd

// detect probes the CPU once at init: AVX2 needs the feature bit plus
// OS-enabled YMM state (OSXSAVE + XCR0 SSE|AVX).
func detect() Mode {
	if hasAVX2() {
		return AVX2
	}
	return Generic
}

func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

func bind() {
	windowInto = windowIntoAsm
	mag2Accum = mag2AccumAsm
	modulate = modulateAsm
	firReal = firRealAsm
	demodulate = demodulateAsm
	allFinite = allFiniteAsm
	span2 = span2Asm
	unit4Fwd = unit4FwdAsm
	unit4Inv = unit4InvAsm
	radix4Fwd = radix4FwdAsm
	radix4Inv = radix4InvAsm
	packIQ32 = packIQ32Asm
	unpackIQ32 = unpackIQ32Asm
}

// The wrappers in kernels.go guarantee non-empty, length-matched slices
// before these shims run, so indexing the first element is safe.

func windowIntoAsm(dst, x []complex128, w []float64) {
	windowIntoAVX2(&dst[0], &x[0], &w[0], len(dst))
}

func mag2AccumAsm(dst []float64, x []complex128) { mag2AccumAVX2(&dst[0], &x[0], len(dst)) }

func modulateAsm(out, chips []complex128, g []float64) {
	modulateAVX2(&out[0], &chips[0], &g[0], len(chips), len(g))
}

func firRealAsm(out, buf []complex128, h []float64) {
	firRealAVX2(&out[0], &buf[0], &h[0], len(out), len(h))
}

func demodulateAsm(out, x []complex128, g []float64, energy float64) {
	demodulateAVX2(&out[0], &x[0], &g[0], len(out), len(g), energy)
}

func allFiniteAsm(x []complex128) bool { return allFiniteAVX2(&x[0], len(x)) }

func span2Asm(x []complex128) { span2AVX2(&x[0], len(x)) }

func unit4FwdAsm(x []complex128) { unit4FwdAVX2(&x[0], len(x)) }

func unit4InvAsm(x []complex128) { unit4InvAVX2(&x[0], len(x)) }

func radix4FwdAsm(x []complex128, h int, twA, twB []complex128) {
	radix4FwdAVX2(&x[0], len(x), h, &twA[0], &twB[0])
}

func radix4InvAsm(x []complex128, h int, twA, twB []complex128) {
	radix4InvAVX2(&x[0], len(x), h, &twA[0], &twB[0])
}

func packIQ32Asm(dst []byte, src []complex128) { packIQ32AVX2(&dst[0], &src[0], len(src)) }

func unpackIQ32Asm(dst []complex128, src []byte) { unpackIQ32AVX2(&dst[0], &src[0], len(dst)) }

// boxMuller runs the AVX2 kernel over the multiple of four and the generic
// body over the tail.
func boxMuller(dst []complex128, u, v []float64, gain float64) {
	n := 0
	if active == AVX2 {
		n = len(dst) &^ 3
		if n > 0 {
			boxMullerAVX2(&dst[0], &u[0], &v[0], n, gain)
		}
	}
	boxMullerGeneric(dst[n:], u[n:], v[n:], gain)
}

// Assembly routines (kernels_amd64.s, cpu_amd64.s).

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func windowIntoAVX2(dst, x *complex128, w *float64, n int)

//go:noescape
func mag2AccumAVX2(dst *float64, x *complex128, n int)

//go:noescape
func modulateAVX2(out, chips *complex128, taps *float64, nchips, sps int)

//go:noescape
func firRealAVX2(out, buf *complex128, h *float64, n, k int)

//go:noescape
func boxMullerAVX2(dst *complex128, u, v *float64, n int, gain float64)

//go:noescape
func demodulateAVX2(out, x *complex128, taps *float64, nchips, sps int, energy float64)

//go:noescape
func allFiniteAVX2(x *complex128, n int) bool

//go:noescape
func span2AVX2(x *complex128, n int)

//go:noescape
func unit4FwdAVX2(x *complex128, n int)

//go:noescape
func unit4InvAVX2(x *complex128, n int)

//go:noescape
func radix4FwdAVX2(x *complex128, n, h int, twA, twB *complex128)

//go:noescape
func radix4InvAVX2(x *complex128, n, h int, twA, twB *complex128)

//go:noescape
func packIQ32AVX2(dst *byte, src *complex128, n int)

//go:noescape
func unpackIQ32AVX2(dst *complex128, src *byte, n int)
