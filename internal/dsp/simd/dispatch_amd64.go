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

func bind(Mode) {
	cmulTo = cmulToAsm
	scaleReal = scaleRealAsm
	addTo = addToAsm
	windowInto = windowIntoAsm
	mag2Accum = mag2AccumAsm
	modulate = modulateAsm
	firReal = firRealAsm
	demodulate = demodulateAsm
	dotConj = dotConjAsm
	corrReal = corrRealAsm
	sumFloats = sumFloatsAsm
	allFinite = allFiniteAsm
	pow4Into = pow4IntoAsm
	span2 = span2Asm
	unit4Fwd = unit4FwdAsm
	unit4Inv = unit4InvAsm
	radix4Fwd = radix4FwdAsm
	radix4Inv = radix4InvAsm
}

// The wrappers in kernels.go guarantee non-empty, length-matched slices
// before these shims run, so indexing the first element is safe.

func cmulToAsm(dst, src []complex128) { cmulToAVX2(&dst[0], &src[0], len(dst)) }

func scaleRealAsm(x []complex128, g float64) { scaleRealAVX2(&x[0], len(x), g) }

func addToAsm(dst, src []complex128) { addToAVX2(&dst[0], &src[0], len(dst)) }

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

func dotConjAsm(a, b []complex128) complex128 {
	re, im := dotConjAVX2(&a[0], &b[0], len(a))
	return complex(re, im)
}

func corrRealAsm(a, b []complex128) float64 { return corrRealAVX2(&a[0], &b[0], len(a)) }

func sumFloatsAsm(x []float64) float64 { return sumFloatsAVX2(&x[0], len(x)) }

func allFiniteAsm(x []complex128) bool { return allFiniteAVX2(&x[0], len(x)) }

func pow4IntoAsm(dst, src []complex128) { pow4IntoAVX2(&dst[0], &src[0], len(dst)) }

func span2Asm(x []complex128) { span2AVX2(&x[0], len(x)) }

func unit4FwdAsm(x []complex128) { unit4FwdAVX2(&x[0], len(x)) }

func unit4InvAsm(x []complex128) { unit4InvAVX2(&x[0], len(x)) }

func radix4FwdAsm(x []complex128, h int, twA, twB []complex128) {
	radix4FwdAVX2(&x[0], len(x), h, &twA[0], &twB[0])
}

func radix4InvAsm(x []complex128, h int, twA, twB []complex128) {
	radix4InvAVX2(&x[0], len(x), h, &twA[0], &twB[0])
}

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
func cmulToAVX2(dst, src *complex128, n int)

//go:noescape
func scaleRealAVX2(x *complex128, n int, gain float64)

//go:noescape
func addToAVX2(dst, src *complex128, n int)

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
func dotConjAVX2(a, b *complex128, n int) (re, im float64)

//go:noescape
func corrRealAVX2(a, b *complex128, n int) float64

//go:noescape
func sumFloatsAVX2(x *float64, n int) float64

//go:noescape
func allFiniteAVX2(x *complex128, n int) bool

//go:noescape
func pow4IntoAVX2(dst, src *complex128, n int)

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
