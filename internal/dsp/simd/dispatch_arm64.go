//go:build arm64

package simd

// detect: AdvSIMD (NEON) is architecturally baseline on arm64.
func detect() Mode { return NEON }

// bind installs the arm64 kernel subset. Only kernels whose generic Go
// form contains no multiply-then-add chain are accelerated: the gc arm64
// backend may contract a*b±c into a fused FMADD/FMSUB, so a NEON kernel
// with separate rounding could differ from the compiled fallback in the
// last ulp. Pure add/sub kernels (the FFT's twiddle-free stages, AddTo)
// and pure multiply kernels (ScaleReal) are immune; everything else
// dispatches to the canonical generic code.
func bind(Mode) {
	addTo = addToAsmARM
	scaleReal = scaleRealAsmARM
	span2 = span2AsmARM
	unit4Fwd = unit4FwdAsmARM
	unit4Inv = unit4InvAsmARM
}

// boxMuller stays generic: its polynomials are multiply-then-add chains.
func boxMuller(dst []complex128, u, v []float64, gain float64) {
	boxMullerGeneric(dst, u, v, gain)
}

func addToAsmARM(dst, src []complex128) { addToNEON(&dst[0], &src[0], len(dst)) }

func scaleRealAsmARM(x []complex128, g float64) { scaleRealNEON(&x[0], len(x), g) }

func span2AsmARM(x []complex128) { span2NEON(&x[0], len(x)) }

func unit4FwdAsmARM(x []complex128) { unit4FwdNEON(&x[0], len(x)) }

func unit4InvAsmARM(x []complex128) { unit4InvNEON(&x[0], len(x)) }

// Assembly routines (kernels_arm64.s).

//go:noescape
func addToNEON(dst, src *complex128, n int)

//go:noescape
func scaleRealNEON(x *complex128, n int, gain float64)

//go:noescape
func span2NEON(x *complex128, n int)

//go:noescape
func unit4FwdNEON(x *complex128, n int)

//go:noescape
func unit4InvNEON(x *complex128, n int)
