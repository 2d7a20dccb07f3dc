package dsp

import (
	"testing"
)

func TestFFTPlanMatchesNaiveDFT(t *testing.T) {
	// Both parities of log2(n) exercise the lone radix-2 stage and the
	// specialized first radix-4 pass; 4096 covers several fused passes.
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 2048, 4096} {
		p, err := NewFFTPlan(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if p.n != n {
			t.Fatalf("n=%d: plan size %d", n, p.n)
		}
		x := randSignal(n, uint64(n)+7)
		want := dftNaive(x)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		for k := range want {
			if !cEq(got[k], want[k], 1e-9*float64(n)) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestFFTPlanInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 512, 4096} {
		p := PlanFFT(n)
		x := randSignal(n, uint64(n)+13)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		p.Inverse(got)
		for k := range x {
			if !cEq(got[k], x[k], 1e-10*float64(n)) {
				t.Fatalf("n=%d sample %d: got %v want %v", n, k, got[k], x[k])
			}
		}
	}
}

func TestLargeNonPow2FFTMatchesNaive(t *testing.T) {
	// Bluestein path at sizes past the trivial ones, including a prime.
	for _, n := range []int{384, 500, 769} {
		x := randSignal(n, uint64(n)+29)
		want := dftNaive(x)
		got := FFT(append([]complex128(nil), x...))
		for k := range want {
			if !cEq(got[k], want[k], 1e-8*float64(n)) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestNewFFTPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{-4, 0, 3, 6, 12, 1000} {
		if _, err := NewFFTPlan(n); err == nil {
			t.Fatalf("n=%d: expected error", n)
		}
	}
}

func TestPlanFFTMemoizesPerSize(t *testing.T) {
	if PlanFFT(128) != PlanFFT(128) {
		t.Fatal("PlanFFT(128) returned distinct plans")
	}
}

func TestFFTPlanPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PlanFFT(16).Forward(make([]complex128, 8))
}

func FuzzFFTPlanSizes(f *testing.F) {
	for _, n := range []int{-1, 0, 1, 2, 3, 64, 65, 255, 256, 1 << 20} {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, n int) {
		p, err := NewFFTPlan(n)
		isPow2 := n >= 1 && n&(n-1) == 0
		if (err == nil) != isPow2 {
			t.Fatalf("n=%d: err=%v, want error iff not a power of two", n, err)
		}
		if err != nil {
			return
		}
		if n > 1<<12 {
			return // keep per-input work bounded
		}
		// Forward+Inverse must round-trip on any valid plan.
		x := randSignal(n, uint64(n)*2654435761+1)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		p.Inverse(got)
		for k := range x {
			if !cEq(got[k], x[k], 1e-9*float64(n)+1e-12) {
				t.Fatalf("n=%d sample %d: got %v want %v", n, k, got[k], x[k])
			}
		}
	})
}
