package simd

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// Parity tests: the dispatched kernels (assembly on CPUs where bind()
// installed them, generic otherwise) must be bit-identical to the
// canonical generic implementations for every length, including
// unaligned lengths, odd vector tails, and aliased src/dst. Run with
// BHSS_SIMD=off these compare generic against itself (trivially green);
// CI runs both settings so the assembly path is always exercised on
// capable hardware.

// lcg is a tiny deterministic generator so the tests need no math/rand.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// f64 returns values spanning a wide dynamic range, ~[-1,1) scaled by
// occasional 1e±12 outliers, so rounding differences cannot hide.
func (r *lcg) f64() float64 {
	u := r.next()
	f := float64(int64(u>>11))/float64(int64(1)<<52) - 0.5
	switch u & 0xF {
	case 0:
		f *= 1e12
	case 1:
		f *= 1e-12
	}
	return f
}

func (r *lcg) c128() complex128 { return complex(r.f64(), r.f64()) }

func (r *lcg) complexSlice(n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = r.c128()
	}
	return out
}

func (r *lcg) floatSlice(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func cloneC(x []complex128) []complex128 { return append([]complex128(nil), x...) }

func cloneF(x []float64) []float64 { return append([]float64(nil), x...) }

func sameC(t *testing.T, name string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: index %d: got %v want %v (mode %v)", name, i, got[i], want[i], Active())
		}
	}
}

func sameF(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: index %d: got %v want %v (mode %v)", name, i, got[i], want[i], Active())
		}
	}
}

func sameScalar(t *testing.T, name string, n int, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: n=%d: got %v want %v (mode %v)", name, n, got, want, Active())
	}
}

// parityLens covers sub-vector lengths, exact vector multiples, and
// every tail residue around them.
var parityLens = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 1000}

func TestActiveMode(t *testing.T) {
	m := Active()
	if m != Generic && m != AVX2 {
		t.Fatalf("Active() = %d, not a known Mode", m)
	}
	t.Logf("dispatch mode: %v", m)
}

func TestWindowIntoParity(t *testing.T) {
	rng := lcg(4)
	for _, n := range parityLens {
		x, w := rng.complexSlice(n), rng.floatSlice(n)
		want := make([]complex128, n)
		windowIntoGeneric(want, x, w)
		got := make([]complex128, n)
		WindowInto(got, x, w)
		sameC(t, "WindowInto", got, want)

		// Aliased: window in place.
		wantAl := cloneC(x)
		windowIntoGeneric(wantAl, wantAl, w)
		gotAl := cloneC(x)
		WindowInto(gotAl, gotAl, w)
		sameC(t, "WindowInto aliased", gotAl, wantAl)
	}
	WindowInto(nil, nil, nil)
}

func TestMag2AccumParity(t *testing.T) {
	rng := lcg(5)
	for _, n := range parityLens {
		x := rng.complexSlice(n)
		acc := rng.floatSlice(n)
		want := cloneF(acc)
		mag2AccumGeneric(want, x)
		got := cloneF(acc)
		Mag2Accum(got, x)
		sameF(t, "Mag2Accum", got, want)
	}
	Mag2Accum(nil, nil)
}

func TestModulateParity(t *testing.T) {
	rng := lcg(6)
	for _, sps := range []int{1, 2, 3, 4, 5, 7, 8, 12, 31} {
		for _, nchips := range []int{1, 2, 3, 5, 32} {
			chips := rng.complexSlice(nchips)
			g := rng.floatSlice(sps)
			want := make([]complex128, nchips*sps)
			modulateGeneric(want, chips, g)
			got := make([]complex128, nchips*sps)
			Modulate(got, chips, g)
			sameC(t, "Modulate", got, want)
		}
	}
	Modulate(nil, nil, nil)
}

func TestDemodulateParity(t *testing.T) {
	rng := lcg(7)
	for _, sps := range []int{1, 2, 3, 4, 5, 7, 8, 12, 31} {
		for _, nchips := range []int{1, 2, 3, 5, 32} {
			x := rng.complexSlice(nchips * sps)
			g := rng.floatSlice(sps)
			energy := 0.5 + math.Abs(rng.f64())
			want := make([]complex128, nchips)
			demodulateGeneric(want, x, g, energy)
			got := make([]complex128, nchips)
			Demodulate(got, x, g, energy)
			sameC(t, "Demodulate", got, want)
		}
	}
	Demodulate(nil, nil, nil, 1)
}

func TestFIRRealParity(t *testing.T) {
	rng := lcg(16)
	// Every residue of the 8-, 2- and 1-output blocks, plus a long run of
	// each: 4095 ends in all three tails, 36,000 is a jammer frame.
	lens := []int{4095, 36000}
	for n := 0; n <= 17; n++ {
		lens = append(lens, n)
	}
	for _, k := range []int{1, 2, 3, 4, 5, 8, 9, 129, 513} {
		h := rng.floatSlice(k)
		for _, n := range lens {
			buf := rng.complexSlice(n + k - 1)
			want := make([]complex128, n)
			firRealGeneric(want, buf, h)
			got := make([]complex128, n)
			FIRReal(got, buf, h)
			sameC(t, fmt.Sprintf("FIRReal k=%d n=%d", k, n), got, want)
		}
	}
	FIRReal(nil, nil, nil)
}

// unitU returns a Box–Muller u as prng.Source draws it: k·2⁻⁵³, k ≥ 1.
func (r *lcg) unitU() float64 {
	for {
		if k := r.next() >> 11; k != 0 {
			return float64(k) / (1 << 53)
		}
	}
}

// unitV returns a Box–Muller v in [0, 1), k·2⁻⁵³.
func (r *lcg) unitV() float64 { return float64(r.next()>>11) / (1 << 53) }

// boxMullerEdges returns the uniforms where the kernel's branch-free
// forms of Log and Sincos could part from the scalar branches: u at both
// ends of its range and on either side of Frexp's √2/2 test at several
// exponents; v at both ends and within 64 ulps of every octant boundary
// k/8, where the truncated j changes and the sign and swap masks flip.
func boxMullerEdges() (us, vs []float64) {
	us = []float64{0x1p-53, 1 - 0x1p-53, 1, 0.5, 0.25}
	for _, e := range []float64{1, 0x1p-1, 0x1p-2, 0x1p-20, 0x1p-52} {
		x := math.Sqrt2 / 2 * e
		us = append(us, x)
		lo, hi := x, x
		for range 3 {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
			us = append(us, lo, hi)
		}
	}
	vs = []float64{0, 0x1p-53, 1 - 0x1p-53}
	for k := 1; k < 8; k++ {
		x := float64(k) / 8
		vs = append(vs, x)
		lo, hi := x, x
		for range 64 {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
			vs = append(vs, lo, hi)
		}
	}
	return us, vs
}

func TestBoxMullerParity(t *testing.T) {
	const gain = 0.7071067811865476
	rng := lcg(14)
	for _, n := range append(parityLens, 1<<16) {
		u, v := make([]float64, n), make([]float64, n)
		for i := range u {
			u[i], v[i] = rng.unitU(), rng.unitV()
		}
		want := make([]complex128, n)
		boxMullerGeneric(want, u, v, gain)
		got := make([]complex128, n)
		BoxMuller(got, u, v, gain)
		sameC(t, "BoxMuller", got, want)
	}

	// Every edge u against every edge v, shifted through all four lanes.
	eu, ev := boxMullerEdges()
	var u, v []float64
	for _, x := range eu {
		for _, y := range ev {
			u, v = append(u, x), append(v, y)
		}
	}
	for off := range 4 {
		want := make([]complex128, len(u)-off)
		boxMullerGeneric(want, u[off:], v[off:], gain)
		got := make([]complex128, len(want))
		BoxMuller(got, u[off:], v[off:], gain)
		sameC(t, fmt.Sprintf("BoxMuller edges (offset %d)", off), got, want)
	}

	// The common prefix only; nothing past it is written.
	got := []complex128{7, 7, 7}
	BoxMuller(got, u[:2], v, 1)
	if got[2] != 7 {
		t.Fatalf("BoxMuller wrote past the shortest input: %v", got)
	}
	BoxMuller(nil, nil, nil, 1) // no panic on empty
}

// codecSpecials are the float64 components where a narrowing conversion
// could part from float32(x): signed zeros and infinities, quiet and
// signalling NaNs with payloads, overflow past MaxFloat32 and its halfway
// point, float32 subnormals and the halfway cases of their rounding, ties
// to even in the normal range, and float64 subnormals that narrow to zero.
var codecSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8000000000000), // quiet NaN
	math.Float64frombits(0xfff8000000000123), // negative quiet NaN, payload
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0x7ff4000020000000), // signalling NaN, payload above float32's
	math.MaxFloat32, -math.MaxFloat32, 1e39, -1e300, math.MaxFloat64,
	0x1.ffffffp127, // halfway to overflow: the tie rounds to Inf
	math.Nextafter(0x1.ffffffp127, 0),
	0x1p-126, 0x1p-149, -0x1p-149, 0x1p-150, 0x1.8p-150, 3 * 0x1p-150, 1e-40, -1e-44,
	1 + 0x1p-24, 1 + 3*0x1p-24, -(1 + 0x1p-24), math.Nextafter(1+0x1p-24, 2),
	5e-324, -2.2250738585072014e-308,
}

// codecInputs returns n samples: random components, with the specials
// woven through both rails at every lane position as n grows.
func codecInputs(rng *lcg, n int) []complex128 {
	sp := codecSpecials
	x := rng.complexSlice(n)
	for i := range x {
		switch i % 3 {
		case 0:
			x[i] = complex(sp[(i+n)%len(sp)], imag(x[i]))
		case 1:
			x[i] = complex(real(x[i]), sp[(3*i+n)%len(sp)])
		}
	}
	return x
}

// codecLens is every length from 0 to 70 and a wire block: all residues
// of the 8-sample loop and its pair and single tails.
func codecLens() []int {
	lens := []int{4096}
	for n := 0; n <= 70; n++ {
		lens = append(lens, n)
	}
	return lens
}

func TestPackIQ32Parity(t *testing.T) {
	rng := lcg(17)
	for _, n := range codecLens() {
		src := codecInputs(&rng, n)
		// One guard sample past the end: nothing may be written there.
		want, got := make([]byte, 8*n+8), make([]byte, 8*n+8)
		for i := range got {
			got[i], want[i] = 0xA5, 0xA5
		}
		packIQ32Generic(want[:8*n], src)
		PackIQ32(got, src)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("PackIQ32 n=%d: byte %d = %#x, want %#x (mode %v)", n, i, got[i], want[i], Active())
			}
		}
		for i, s := range src {
			re := binary.LittleEndian.Uint32(got[8*i:])
			im := binary.LittleEndian.Uint32(got[8*i+4:])
			if re != math.Float32bits(float32(real(s))) || im != math.Float32bits(float32(imag(s))) {
				t.Fatalf("PackIQ32 n=%d: sample %d = %#x %#x, not float32(%v)", n, i, re, im, s)
			}
		}
	}
	PackIQ32(nil, nil)
}

func TestUnpackIQ32Parity(t *testing.T) {
	rng := lcg(18)
	specials := []uint32{
		0, 0x80000000, 0x7f800000, 0xff800000, // ±0, ±Inf
		0x7fc00000, 0xffc00123, // quiet NaNs
		0x7f800001, 0xffa00000, 0x7fbfffff, // signalling NaNs
		0x00000001, 0x807fffff, 0x00400000, // subnormals
		0x7f7fffff, 0x00800000, 0x3f800001, // largest, smallest normal, 1+ulp
	}
	for _, n := range codecLens() {
		src := make([]byte, 8*n)
		for i := 0; i < 2*n; i++ {
			w := uint32(rng.next() >> 32)
			if i%3 == 0 {
				w = specials[(i/3+n)%len(specials)]
			}
			binary.LittleEndian.PutUint32(src[4*i:], w)
		}
		want := make([]complex128, n+1)
		got := make([]complex128, n+1)
		want[n], got[n] = 7, 7
		unpackIQ32Generic(want[:n], src)
		UnpackIQ32(got[:n], src)
		sameC(t, fmt.Sprintf("UnpackIQ32 n=%d", n), got, want)
		for i := range got[:n] {
			re := math.Float32frombits(binary.LittleEndian.Uint32(src[8*i:]))
			im := math.Float32frombits(binary.LittleEndian.Uint32(src[8*i+4:]))
			sameC(t, fmt.Sprintf("UnpackIQ32 n=%d sample %d", n, i), got[i:i+1], []complex128{complex(float64(re), float64(im))})
		}
	}
	UnpackIQ32(nil, nil)
}

func TestAllFiniteParity(t *testing.T) {
	rng := lcg(11)
	for _, n := range parityLens {
		x := rng.complexSlice(n)
		if !AllFinite(x) || !allFiniteGeneric(x) {
			t.Fatalf("AllFinite: finite slice of %d reported non-finite", n)
		}
		// Poison every position in turn, alternating NaN / ±Inf, on
		// either component.
		for i := 0; i < n; i++ {
			bad := math.NaN()
			switch i % 3 {
			case 1:
				bad = math.Inf(1)
			case 2:
				bad = math.Inf(-1)
			}
			y := cloneC(x)
			if i%2 == 0 {
				y[i] = complex(bad, imag(y[i]))
			} else {
				y[i] = complex(real(y[i]), bad)
			}
			if AllFinite(y) {
				t.Fatalf("AllFinite: n=%d poison at %d not detected (mode %v)", n, i, Active())
			}
			if allFiniteGeneric(y) {
				t.Fatalf("allFiniteGeneric: n=%d poison at %d not detected", n, i)
			}
		}
	}
	if !AllFinite(nil) {
		t.Fatal("AllFinite(nil) should be true")
	}
}

func TestSpan2Parity(t *testing.T) {
	rng := lcg(13)
	for _, n := range []int{2, 4, 6, 8, 16, 32, 34, 64, 128, 1000} {
		x := rng.complexSlice(n)
		want := cloneC(x)
		span2Generic(want)
		got := cloneC(x)
		Span2(got)
		sameC(t, "Span2", got, want)
	}
	Span2(nil)
}

func TestUnit4Parity(t *testing.T) {
	rng := lcg(14)
	for _, n := range []int{4, 8, 16, 32, 64, 256, 1024} {
		x := rng.complexSlice(n)
		wantF := cloneC(x)
		unit4FwdGeneric(wantF)
		gotF := cloneC(x)
		Unit4Forward(gotF)
		sameC(t, "Unit4Forward", gotF, wantF)

		wantI := cloneC(x)
		unit4InvGeneric(wantI)
		gotI := cloneC(x)
		Unit4Inverse(gotI)
		sameC(t, "Unit4Inverse", gotI, wantI)
	}
	Unit4Forward(nil)
	Unit4Inverse(nil)
}

func TestRadix4Parity(t *testing.T) {
	rng := lcg(15)
	for _, h := range []int{2, 4, 8, 16, 32} {
		for _, blocks := range []int{1, 2, 3} {
			n := 4 * h * blocks
			x := rng.complexSlice(n)
			twA := rng.complexSlice(h)
			twB := rng.complexSlice(h)

			wantF := cloneC(x)
			radix4FwdGeneric(wantF, h, twA, twB)
			gotF := cloneC(x)
			Radix4Forward(gotF, h, twA, twB)
			sameC(t, "Radix4Forward", gotF, wantF)

			wantI := cloneC(x)
			radix4InvGeneric(wantI, h, twA, twB)
			gotI := cloneC(x)
			Radix4Inverse(gotI, h, twA, twB)
			sameC(t, "Radix4Inverse", gotI, wantI)
		}
	}
}

// Micro-benchmarks for the kernels the link hot path leans on.

func BenchmarkMag2Accum(b *testing.B) {
	rng := lcg(99)
	x := rng.complexSlice(4096)
	dst := make([]float64, 4096)
	b.SetBytes(4096 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mag2Accum(dst, x)
	}
}

func BenchmarkDemodulate(b *testing.B) {
	rng := lcg(99)
	const nchips, sps = 512, 8
	x := rng.complexSlice(nchips * sps)
	g := rng.floatSlice(sps)
	out := make([]complex128, nchips)
	b.SetBytes(nchips * sps * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Demodulate(out, x, g, 1.25)
	}
}

func BenchmarkFIRReal(b *testing.B) {
	rng := lcg(99)
	const n, k = 4096, 129
	buf := rng.complexSlice(n + k - 1)
	h := rng.floatSlice(k)
	out := make([]complex128, n)
	b.SetBytes(n * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FIRReal(out, buf, h)
	}
}

func BenchmarkBoxMuller(b *testing.B) {
	rng := lcg(99)
	const n = 4096
	u, v := make([]float64, n), make([]float64, n)
	for i := range u {
		u[i], v[i] = rng.unitU(), rng.unitV()
	}
	dst := make([]complex128, n)
	b.SetBytes(n * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BoxMuller(dst, u, v, 1)
	}
}

func BenchmarkPackIQ32(b *testing.B) {
	rng := lcg(99)
	src := rng.complexSlice(4096)
	dst := make([]byte, 8*len(src))
	b.SetBytes(int64(len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackIQ32(dst, src)
	}
}

func BenchmarkUnpackIQ32(b *testing.B) {
	rng := lcg(99)
	src := make([]byte, 8*4096)
	PackIQ32(src, rng.complexSlice(4096))
	dst := make([]complex128, 4096)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UnpackIQ32(dst, src)
	}
}

func BenchmarkRadix4Forward(b *testing.B) {
	rng := lcg(99)
	const h = 256
	x := rng.complexSlice(4 * h)
	twA := rng.complexSlice(h)
	twB := rng.complexSlice(h)
	b.SetBytes(4 * h * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Radix4Forward(x, h, twA, twB)
	}
}
