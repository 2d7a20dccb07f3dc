package simd

import "math"

// Pure-Go canonical kernels. These are the fallback on CPUs without an
// assembly set and the reference the parity tests compare the assembly
// against — both paths must round identically, so the reduction kernels
// here spell out the same blocked accumulation order the vector code
// uses. Loop bodies are written as plain per-element IEEE-754 expression
// sequences; on amd64 the compiler never fuses them (no FMA contraction),
// which is what makes exact equivalence with the assembly possible.

func cmulToGeneric(dst, src []complex128) {
	for i, b := range src {
		dst[i] *= b
	}
}

func scaleRealGeneric(x []complex128, g float64) {
	for i, v := range x {
		x[i] = complex(real(v)*g, imag(v)*g)
	}
}

func addToGeneric(dst, src []complex128) {
	for i, b := range src {
		dst[i] += b
	}
}

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

func dotConjGeneric(a, b []complex128) complex128 {
	// Canonical lanes: for the real part, products ar·br and ai·bi
	// accumulate in separate lanes split further by element parity; the
	// imaginary part does the same with ai·br and ar·bi. The odd tail
	// folds into the even lanes; re = (eRB+oRB)+(eIB+oIB),
	// im = (eIR+oIR)−(eRI+oRI).
	var eRB, eIB, oRB, oIB float64 // real-part lanes
	var eIR, eRI, oIR, oRI float64 // imag-part lanes
	n := len(a)
	i := 0
	for ; i+2 <= n; i += 2 {
		ar0, ai0 := real(a[i]), imag(a[i])
		br0, bi0 := real(b[i]), imag(b[i])
		eRB += ar0 * br0
		eIB += ai0 * bi0
		eIR += ai0 * br0
		eRI += ar0 * bi0
		ar1, ai1 := real(a[i+1]), imag(a[i+1])
		br1, bi1 := real(b[i+1]), imag(b[i+1])
		oRB += ar1 * br1
		oIB += ai1 * bi1
		oIR += ai1 * br1
		oRI += ar1 * bi1
	}
	if i < n {
		ar, ai := real(a[i]), imag(a[i])
		br, bi := real(b[i]), imag(b[i])
		eRB += ar * br
		eIB += ai * bi
		eIR += ai * br
		eRI += ar * bi
	}
	return complex((eRB+oRB)+(eIB+oIB), (eIR+oIR)-(eRI+oRI))
}

func corrRealGeneric(a, b []complex128) float64 {
	var eRB, eIB, oRB, oIB float64
	n := len(a)
	i := 0
	for ; i+2 <= n; i += 2 {
		eRB += real(a[i]) * real(b[i])
		eIB += imag(a[i]) * imag(b[i])
		oRB += real(a[i+1]) * real(b[i+1])
		oIB += imag(a[i+1]) * imag(b[i+1])
	}
	if i < n {
		eRB += real(a[i]) * real(b[i])
		eIB += imag(a[i]) * imag(b[i])
	}
	return (eRB + oRB) + (eIB + oIB)
}

func sumFloatsGeneric(x []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i]
		s1 += x[i+1]
		s2 += x[i+2]
		s3 += x[i+3]
	}
	t := (s0 + s2) + (s1 + s3)
	for ; i < n; i++ {
		t += x[i]
	}
	return t
}

func allFiniteGeneric(x []complex128) bool {
	for _, v := range x {
		if real(v)-real(v) != 0 || imag(v)-imag(v) != 0 {
			return false
		}
	}
	return true
}

func pow4IntoGeneric(dst, src []complex128) {
	for i, v := range src {
		v2 := v * v
		dst[i] = v2 * v2
	}
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
