package simd

import (
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
	if m != Generic && m != AVX2 && m != NEON {
		t.Fatalf("Active() = %d, not a known Mode", m)
	}
	t.Logf("dispatch mode: %v", m)
}

func TestCMulToParity(t *testing.T) {
	rng := lcg(1)
	for _, n := range parityLens {
		a, b := rng.complexSlice(n), rng.complexSlice(n)
		want := cloneC(a)
		cmulToGeneric(want, b)
		got := cloneC(a)
		CMulTo(got, b)
		sameC(t, "CMulTo", got, want)

		// Aliased: dst[i] *= dst[i].
		wantAl := cloneC(a)
		cmulToGeneric(wantAl, wantAl)
		gotAl := cloneC(a)
		CMulTo(gotAl, gotAl)
		sameC(t, "CMulTo aliased", gotAl, wantAl)
	}
	CMulTo(nil, nil) // no panic on empty
}

func TestScaleRealParity(t *testing.T) {
	rng := lcg(2)
	for _, n := range parityLens {
		for _, g := range []float64{0.37, -2.5, 1e-300, 7.25e8} {
			a := rng.complexSlice(n)
			want := cloneC(a)
			scaleRealGeneric(want, g)
			got := cloneC(a)
			ScaleReal(got, g)
			sameC(t, "ScaleReal", got, want)
		}
	}
	ScaleReal(nil, 2)
}

func TestAddToParity(t *testing.T) {
	rng := lcg(3)
	for _, n := range parityLens {
		a, b := rng.complexSlice(n), rng.complexSlice(n)
		want := cloneC(a)
		addToGeneric(want, b)
		got := cloneC(a)
		AddTo(got, b)
		sameC(t, "AddTo", got, want)

		wantAl := cloneC(a)
		addToGeneric(wantAl, wantAl)
		gotAl := cloneC(a)
		AddTo(gotAl, gotAl)
		sameC(t, "AddTo aliased", gotAl, wantAl)
	}
	AddTo(nil, nil)
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

func TestDotConjParity(t *testing.T) {
	rng := lcg(8)
	for _, n := range parityLens {
		a, b := rng.complexSlice(n), rng.complexSlice(n)
		want := dotConjGeneric(a, b)
		got := DotConj(a, b)
		if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
			math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
			t.Fatalf("DotConj: n=%d: got %v want %v (mode %v)", n, got, want, Active())
		}
	}
	if DotConj(nil, nil) != 0 {
		t.Fatal("DotConj(nil, nil) != 0")
	}
}

func TestCorrRealParity(t *testing.T) {
	rng := lcg(9)
	for _, n := range parityLens {
		a, b := rng.complexSlice(n), rng.complexSlice(n)
		sameScalar(t, "CorrReal", n, CorrReal(a, b), corrRealGeneric(a, b))
	}
	if CorrReal(nil, nil) != 0 {
		t.Fatal("CorrReal(nil, nil) != 0")
	}
}

func TestSumFloatsParity(t *testing.T) {
	rng := lcg(10)
	for _, n := range parityLens {
		x := rng.floatSlice(n)
		sameScalar(t, "SumFloats", n, SumFloats(x), sumFloatsGeneric(x))
	}
	if SumFloats(nil) != 0 {
		t.Fatal("SumFloats(nil) != 0")
	}
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

func TestPow4IntoParity(t *testing.T) {
	rng := lcg(12)
	for _, n := range parityLens {
		src := rng.complexSlice(n)
		want := make([]complex128, n)
		pow4IntoGeneric(want, src)
		got := make([]complex128, n)
		Pow4Into(got, src)
		sameC(t, "Pow4Into", got, want)

		wantAl := cloneC(src)
		pow4IntoGeneric(wantAl, wantAl)
		gotAl := cloneC(src)
		Pow4Into(gotAl, gotAl)
		sameC(t, "Pow4Into aliased", gotAl, wantAl)
	}
	Pow4Into(nil, nil)
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

func benchComplexPair(n int) ([]complex128, []complex128) {
	rng := lcg(99)
	return rng.complexSlice(n), rng.complexSlice(n)
}

func BenchmarkCMulTo(b *testing.B) {
	dst, src := benchComplexPair(4096)
	b.SetBytes(4096 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CMulTo(dst, src)
	}
}

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

func BenchmarkDotConj(b *testing.B) {
	a, x := benchComplexPair(4096)
	b.SetBytes(4096 * 16)
	b.ResetTimer()
	var sink complex128
	for i := 0; i < b.N; i++ {
		sink = DotConj(a, x)
	}
	_ = sink
}
