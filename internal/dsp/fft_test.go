package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"bhss/internal/prng"
)

func cEq(a, b complex128, tol float64) bool { return cmplx.Abs(a-b) <= tol }

// dftNaive is the O(n^2) reference implementation.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			acc += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = acc
	}
	return out
}

// fft transforms x in place through the plan of its size and returns it.
func fft(x []complex128) []complex128 {
	PlanFFT(len(x)).Forward(x)
	return x
}

// ifft is fft's inverse, with 1/N normalization.
func ifft(x []complex128) []complex128 {
	PlanFFT(len(x)).Inverse(x)
	return x
}

func randSignal(n int, seed uint64) []complex128 {
	s := prng.New(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = s.ComplexNorm()
	}
	return x
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128} {
		x := randSignal(n, uint64(n))
		want := dftNaive(x)
		got := fft(append([]complex128(nil), x...))
		for k := range want {
			if !cEq(got[k], want[k], 1e-9*float64(n)) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	for _, n := range []int{4, 16, 256} {
		x := randSignal(n, uint64(n)+7)
		y := fft(append([]complex128(nil), x...))
		back := ifft(y)
		for i := range x {
			if !cEq(back[i], x[i], 1e-9*float64(n)) {
				t.Fatalf("n=%d sample %d: got %v want %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	x := make([]complex128, 8)
	x[0] = 1
	fft(x)
	for k, v := range x {
		if !cEq(v, 1, 1e-12) {
			t.Fatalf("bin %d of impulse transform = %v, want 1", k, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n, bin = 64, 5
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * bin * float64(i) / n
		x[i] = cmplx.Exp(complex(0, ang))
	}
	fft(x)
	for k, v := range x {
		want := complex(0, 0)
		if k == bin {
			want = complex(n, 0)
		}
		if !cEq(v, want, 1e-8) {
			t.Fatalf("bin %d = %v, want %v", k, v, want)
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 128
		x := randSignal(n, seed)
		timeEnergy := Energy(x)
		y := fft(append([]complex128(nil), x...))
		freqEnergy := Energy(y) / float64(n)
		return math.Abs(timeEnergy-freqEnergy) < 1e-6*timeEnergy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 64
		a := randSignal(n, seed)
		b := randSignal(n, seed^0xdeadbeef)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + 2*b[i]
		}
		fa := fft(append([]complex128(nil), a...))
		fb := fft(append([]complex128(nil), b...))
		fs := fft(sum)
		for i := range fs {
			if !cEq(fs[i], fa[i]+2*fb[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFFTShift(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	got := FFTShiftFloat(x)
	want := []float64{2, 3, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("even shift: got %v want %v", got, want)
		}
	}
	x5 := []float64{0, 1, 2, 3, 4}
	got5 := FFTShiftFloat(x5)
	want5 := []float64{3, 4, 0, 1, 2}
	for i := range want5 {
		if got5[i] != want5[i] {
			t.Fatalf("odd shift: got %v want %v", got5, want5)
		}
	}
}

func TestBinFrequencies(t *testing.T) {
	fs := BinFrequencies(4)
	want := []float64{-0.5, -0.25, 0, 0.25}
	for i := range want {
		if math.Abs(fs[i]-want[i]) > 1e-12 {
			t.Fatalf("BinFrequencies(4) = %v, want %v", fs, want)
		}
	}
	fs5 := BinFrequencies(5)
	if fs5[0] >= 0 || fs5[len(fs5)-1] <= 0 {
		t.Fatalf("BinFrequencies(5) = %v should straddle DC", fs5)
	}
	for i := 1; i < len(fs5); i++ {
		if fs5[i] <= fs5[i-1] {
			t.Fatalf("BinFrequencies must be increasing: %v", fs5)
		}
	}
}

func TestFFTShiftFloatRoundTripWithBinFrequencies(t *testing.T) {
	// DC bin must land where BinFrequencies reports 0.
	n := 8
	psd := make([]float64, n)
	psd[0] = 42 // DC in un-shifted order
	shifted := FFTShiftFloat(psd)
	freqs := BinFrequencies(n)
	for i, f := range freqs {
		if f == 0 && shifted[i] != 42 {
			t.Fatalf("DC bin misplaced: %v", shifted)
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := randSignal(1024, 1)
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		fft(buf)
	}
}

func BenchmarkFFT65536(b *testing.B) {
	x := randSignal(65536, 1)
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		fft(buf)
	}
}
