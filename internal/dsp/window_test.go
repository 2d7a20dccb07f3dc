package dsp

import (
	"math"
	"testing"
)

func TestWindowNames(t *testing.T) {
	names := map[Window]string{
		Hamming: "hamming", Blackman: "blackman", Kaiser: "kaiser",
		Window(99): "unknown",
	}
	for w, want := range names {
		if w.String() != want {
			t.Fatalf("%d.String() = %q, want %q", w, w.String(), want)
		}
	}
}

func TestWindowSymmetry(t *testing.T) {
	for _, w := range []Window{Hamming, Blackman, Kaiser} {
		c := w.Coefficients(65, 8.0)
		for i := range c {
			j := len(c) - 1 - i
			if math.Abs(c[i]-c[j]) > 1e-12 {
				t.Fatalf("%v window asymmetric at %d: %v vs %v", w, i, c[i], c[j])
			}
		}
	}
}

func TestWindowRange(t *testing.T) {
	for _, w := range []Window{Hamming, Blackman, Kaiser} {
		for _, n := range []int{1, 2, 17, 64} {
			c := w.Coefficients(n, 5)
			for i, v := range c {
				if v < -1e-12 || v > 1+1e-12 {
					t.Fatalf("%v[%d] = %v out of [0,1]", w, i, v)
				}
			}
		}
	}
}

func TestHammingKnownValues(t *testing.T) {
	c := Hamming.Coefficients(11, 0)
	if math.Abs(c[0]-0.08) > 1e-12 {
		t.Fatalf("Hamming edge = %v, want 0.08", c[0])
	}
	if math.Abs(c[5]-1) > 1e-12 {
		t.Fatalf("Hamming center = %v, want 1", c[5])
	}
}

func TestKaiserBetaMonotone(t *testing.T) {
	prev := -1.0
	for _, a := range []float64{10, 21, 30, 50, 60, 70, 90} {
		b := KaiserBeta(a)
		if b < prev {
			t.Fatalf("KaiserBeta not monotone at %v: %v < %v", a, b, prev)
		}
		prev = b
	}
	if KaiserBeta(10) != 0 {
		t.Fatal("KaiserBeta below 21 dB should be 0")
	}
}

func TestKaiserOrderIncreasesWithSpec(t *testing.T) {
	loose := KaiserOrder(40, 0.05)
	tight := KaiserOrder(80, 0.01)
	if tight <= loose {
		t.Fatalf("tighter spec should need more taps: %d vs %d", tight, loose)
	}
	if KaiserOrder(40, 0.05)%2 != 0 {
		t.Fatal("order should be even so taps = order+1 is odd/symmetric")
	}
}

func TestKaiserOrderPanicsOnZeroWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero transition width should panic")
		}
	}()
	KaiserOrder(60, 0)
}

func TestBesselI0(t *testing.T) {
	// Reference values: I0(0)=1, I0(1)≈1.2660658, I0(5)≈27.239872.
	cases := []struct{ x, want float64 }{
		{0, 1}, {1, 1.2660658777520084}, {5, 27.239871823604442},
	}
	for _, c := range cases {
		if got := besselI0(c.x); math.Abs(got-c.want) > 1e-9*c.want {
			t.Fatalf("I0(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestWindowPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-length window should panic")
		}
	}()
	Hamming.Coefficients(0, 0)
}
