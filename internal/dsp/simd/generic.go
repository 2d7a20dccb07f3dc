package simd

import (
	"encoding/binary"
	"math"
)

// Pure-Go canonical kernels. These are the fallback on CPUs without an
// assembly set and the reference the parity tests compare the assembly
// against — both paths must round identically, so the reduction kernels
// here spell out the same blocked accumulation order the vector code
// uses. Loop bodies are written as plain per-element IEEE-754 expression
// sequences; on amd64 the compiler never fuses them (no FMA contraction),
// which is what makes exact equivalence with the assembly possible.

func windowIntoGeneric(dst, x []complex128, w []float64) {
	for i, wv := range w {
		v := x[i]
		dst[i] = complex(real(v)*wv, imag(v)*wv)
	}
}

func mag2AccumGeneric(dst []float64, x []complex128) {
	for i, v := range x {
		dst[i] += real(v)*real(v) + imag(v)*imag(v)
	}
}

func modulateGeneric(out, chips []complex128, g []float64) {
	sps := len(g)
	for i, c := range chips {
		base := i * sps
		cr, ci := real(c), imag(c)
		for k, gv := range g {
			out[base+k] = complex(cr*gv, ci*gv)
		}
	}
}

func boxMullerGeneric(dst []complex128, u, v []float64, gain float64) {
	for i := range dst {
		r := math.Sqrt(-2 * math.Log(u[i]))
		sin, cos := math.Sincos(2 * math.Pi * v[i])
		dst[i] = complex(r*cos*gain, r*sin*gain)
	}
}

func firRealGeneric(out, buf []complex128, h []float64) {
	k := len(h)
	for i := range out {
		// Each output from +0, taps in ascending order: the scalar
		// direct-form sequence the vector code repeats per lane.
		w := buf[i : i+k]
		var re, im float64
		for t, ht := range h {
			v := w[k-1-t]
			re += ht * real(v)
			im += ht * imag(v)
		}
		out[i] = complex(re, im)
	}
}

func demodulateGeneric(out, x []complex128, g []float64, energy float64) {
	sps := len(g)
	for i := range out {
		base := i * sps
		// Canonical two-lane order: even-index and odd-index samples
		// accumulate separately; the odd tail folds into the even lanes;
		// lanes combine pairwise at the end.
		var eR, eI, oR, oI float64
		k := 0
		for ; k+2 <= sps; k += 2 {
			s0 := x[base+k]
			eR += real(s0) * g[k]
			eI += imag(s0) * g[k]
			s1 := x[base+k+1]
			oR += real(s1) * g[k+1]
			oI += imag(s1) * g[k+1]
		}
		if k < sps {
			s := x[base+k]
			eR += real(s) * g[k]
			eI += imag(s) * g[k]
		}
		accRe := eR + oR
		accIm := eI + oI
		out[i] = complex(accRe/energy, accIm/energy)
	}
}

func allFiniteGeneric(x []complex128) bool {
	for _, v := range x {
		if real(v)-real(v) != 0 || imag(v)-imag(v) != 0 {
			return false
		}
	}
	return true
}

func span2Generic(x []complex128) {
	for i := 0; i+2 <= len(x); i += 2 {
		a, b := x[i], x[i+1]
		x[i], x[i+1] = a+b, a-b
	}
}

func unit4FwdGeneric(x []complex128) {
	for s := 0; s+4 <= len(x); s += 4 {
		a0, a1, a2, a3 := x[s], x[s+1], x[s+2], x[s+3]
		u0, u1 := a0+a1, a0-a1
		u2, u3 := a2+a3, a2-a3
		v3 := complex(imag(u3), -real(u3))
		x[s], x[s+2] = u0+u2, u0-u2
		x[s+1], x[s+3] = u1+v3, u1-v3
	}
}

func unit4InvGeneric(x []complex128) {
	for s := 0; s+4 <= len(x); s += 4 {
		a0, a1, a2, a3 := x[s], x[s+1], x[s+2], x[s+3]
		u0, u1 := a0+a1, a0-a1
		u2, u3 := a2+a3, a2-a3
		v3 := complex(-imag(u3), real(u3))
		x[s], x[s+2] = u0+u2, u0-u2
		x[s+1], x[s+3] = u1+v3, u1-v3
	}
}

func radix4FwdGeneric(x []complex128, h int, twA, twB []complex128) {
	n := len(x)
	for start := 0; start < n; start += 4 * h {
		q0 := x[start : start+h : start+h]
		q1 := x[start+h : start+2*h : start+2*h]
		q2 := x[start+2*h : start+3*h : start+3*h]
		q3 := x[start+3*h : start+4*h : start+4*h]
		for k, wa := range twA {
			wb := twB[k]
			t1 := q1[k] * wa
			u0, u1 := q0[k]+t1, q0[k]-t1
			t3 := q3[k] * wa
			u2, u3 := q2[k]+t3, q2[k]-t3
			v2 := u2 * wb
			v3 := u3 * wb
			v3 = complex(imag(v3), -real(v3))
			q0[k], q2[k] = u0+v2, u0-v2
			q1[k], q3[k] = u1+v3, u1-v3
		}
	}
}

func radix4InvGeneric(x []complex128, h int, twA, twB []complex128) {
	n := len(x)
	for start := 0; start < n; start += 4 * h {
		q0 := x[start : start+h : start+h]
		q1 := x[start+h : start+2*h : start+2*h]
		q2 := x[start+2*h : start+3*h : start+3*h]
		q3 := x[start+3*h : start+4*h : start+4*h]
		for k, wa := range twA {
			wa = complex(real(wa), -imag(wa))
			wb := twB[k]
			wb = complex(real(wb), -imag(wb))
			t1 := q1[k] * wa
			u0, u1 := q0[k]+t1, q0[k]-t1
			t3 := q3[k] * wa
			u2, u3 := q2[k]+t3, q2[k]-t3
			v2 := u2 * wb
			v3 := u3 * wb
			v3 = complex(-imag(v3), real(v3))
			q0[k], q2[k] = u0+v2, u0-v2
			q1[k], q3[k] = u1+v3, u1-v3
		}
	}
}

// The codec bodies convert each component once, float32(x) and float64(f):
// the scalar conversions the vector instructions repeat per lane. The
// three-index reslice gives each sample's eight bytes one bounds check.

func packIQ32Generic(dst []byte, src []complex128) {
	for i, s := range src {
		b := dst[8*i : 8*i+8 : 8*i+8]
		binary.LittleEndian.PutUint32(b, math.Float32bits(float32(real(s))))
		binary.LittleEndian.PutUint32(b[4:], math.Float32bits(float32(imag(s))))
	}
}

func unpackIQ32Generic(dst []complex128, src []byte) {
	for i := range dst {
		b := src[8*i : 8*i+8 : 8*i+8]
		re := math.Float32frombits(binary.LittleEndian.Uint32(b))
		im := math.Float32frombits(binary.LittleEndian.Uint32(b[4:]))
		dst[i] = complex(float64(re), float64(im))
	}
}
