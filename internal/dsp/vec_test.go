package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestPowerAndEnergy(t *testing.T) {
	x := []complex128{1, 1i, -1, -1i}
	if p := Power(x); p != 1 {
		t.Fatalf("power = %v, want 1", p)
	}
	if e := Energy(x); e != 4 {
		t.Fatalf("energy = %v, want 4", e)
	}
	if Power(nil) != 0 {
		t.Fatal("power of empty must be 0")
	}
}

func TestScaleAndNormalize(t *testing.T) {
	x := []complex128{3, 4i}
	Scale(x, 2)
	if x[0] != 6 || x[1] != 8i {
		t.Fatalf("scale: %v", x)
	}
	Scale(x, 1/math.Sqrt(Power(x)))
	if math.Abs(Power(x)-1) > 1e-12 {
		t.Fatalf("normalized power = %v", Power(x))
	}
}

func TestAddTo(t *testing.T) {
	a := []complex128{1, 2, 3}
	b := []complex128{10, 20}
	AddTo(a, b)
	if a[0] != 11 || a[1] != 22 || a[2] != 3 {
		t.Fatalf("AddTo result %v", a)
	}
}

func TestDotConj(t *testing.T) {
	a := []complex128{1 + 1i, 2}
	b := []complex128{1 + 1i, 2}
	got := DotConj(a, b)
	want := complex(6, 0) // |1+i|^2 + |2|^2 = 2 + 4
	if !cEq(got, want, 1e-12) {
		t.Fatalf("DotConj = %v, want %v", got, want)
	}
}

func TestDotConjOrthogonal(t *testing.T) {
	// e^{j2πk/4} sequences at different rates are orthogonal over a period.
	n := 16
	a := make([]complex128, n)
	b := make([]complex128, n)
	for i := range a {
		a[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(i)/4))
		b[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(i)/8))
	}
	if d := DotConj(a, b); cmplx.Abs(d) > 1e-9 {
		t.Fatalf("orthogonal dot = %v", d)
	}
}

func TestMixShiftsSpectrum(t *testing.T) {
	const n = 256
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1 // DC signal
	}
	Mix(x, 0.25, 0)
	// Now all energy should live at bin n/4.
	y := fft(x)
	peak := ArgMaxAbs(y)
	if peak != n/4 {
		t.Fatalf("mixed tone at bin %d, want %d", peak, n/4)
	}
}

func TestMixPhaseContinuity(t *testing.T) {
	const n = 100
	a := make([]complex128, n)
	b := make([]complex128, n)
	for i := range a {
		a[i] = 1
		b[i] = 1
	}
	whole := make([]complex128, n)
	copy(whole, a)
	Mix(whole, 0.013, 0.5)

	ph := Mix(a[:n/2], 0.013, 0.5)
	_ = Mix(a[n/2:], 0.013, ph)
	for i := range whole {
		if !cEq(a[i], whole[i], 1e-9) {
			t.Fatalf("phase discontinuity at %d: %v vs %v", i, a[i], whole[i])
		}
	}
	_ = b
}

func TestMixUnitMagnitudeLongRun(t *testing.T) {
	const n = 100000
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	Mix(x, 1.0/3.0, 0)
	for i, v := range x {
		if math.Abs(cmplx.Abs(v)-1) > 1e-9 {
			t.Fatalf("oscillator drifted off unit circle at %d: |v| = %v", i, cmplx.Abs(v))
		}
	}
}

func TestSinc(t *testing.T) {
	if Sinc(0) != 1 {
		t.Fatal("Sinc(0) must be 1")
	}
	for _, k := range []float64{1, 2, 3, -4} {
		if math.Abs(Sinc(k)) > 1e-15 {
			t.Fatalf("Sinc(%v) = %v, want 0", k, Sinc(k))
		}
	}
	if math.Abs(Sinc(0.5)-2/math.Pi) > 1e-12 {
		t.Fatalf("Sinc(0.5) = %v", Sinc(0.5))
	}
}

func TestArgMaxAbs(t *testing.T) {
	x := []complex128{1 + 2i, -3i}
	if ArgMaxAbs(nil) != -1 {
		t.Fatal("ArgMaxAbs(empty) should be -1")
	}
	if ArgMaxAbs(x) != 1 {
		t.Fatalf("ArgMaxAbs = %d, want 1", ArgMaxAbs(x))
	}
}
