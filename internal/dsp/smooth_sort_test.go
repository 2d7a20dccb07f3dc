package dsp

import (
	"math"
	"sort"
	"testing"

	"bhss/internal/prng"
)

// smoothPSDNaive is the O(n*width) circular moving average SmoothPSDInto
// replaced; it remains here as the reference for the running-sum version.
func smoothPSDNaive(psd []float64, width int) []float64 {
	if width < 1 {
		width = 1
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	n := len(psd)
	out := make([]float64, n)
	for i := range out {
		var sum float64
		for d := -half; d <= half; d++ {
			sum += psd[((i+d)%n+n)%n]
		}
		out[i] = sum / float64(width)
	}
	return out
}

func TestSmoothPSDMatchesNaive(t *testing.T) {
	src := prng.New(42)
	for _, n := range []int{1, 2, 3, 5, 16, 37, 256} {
		psd := make([]float64, n)
		for i := range psd {
			psd[i] = src.Float64() * 100
		}
		// Widths beyond n exercise multi-wrap windows; even widths the
		// round-up-to-odd rule.
		for _, width := range []int{0, 1, 2, 3, 4, 5, 9, 31, 2*n + 3} {
			want := smoothPSDNaive(psd, width)
			got := smoothPSD(psd, width)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
					t.Fatalf("n=%d width=%d bin %d: got %g want %g", n, width, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSmoothPSDIntoPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SmoothPSDInto(make([]float64, 3), make([]float64, 4), 3)
}

func TestSortFloatsMatchesStdlib(t *testing.T) {
	src := prng.New(7)
	for _, n := range []int{0, 1, 2, 3, 17, 100, 1000} {
		a := make([]float64, n)
		for i := range a {
			// Coarse quantization forces duplicates.
			a[i] = math.Floor(src.Float64()*20) - 10
		}
		want := append([]float64(nil), a...)
		sort.Float64s(want)
		SortFloats(a)
		for i := range want {
			if a[i] != want[i] {
				t.Fatalf("n=%d index %d: got %g want %g", n, i, a[i], want[i])
			}
		}
	}
}

func TestQuantileSelectConvention(t *testing.T) {
	shuffled := []float64{7, 3, 10, 1, 6, 9, 2, 8, 5, 4}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.35, 4}, {0.5, 6}, {0.99, 10}, {1, 10}, {1.5, 10}, {-1, 1},
	} {
		a := append([]float64(nil), shuffled...)
		if got := QuantileSelect(a, tc.q); got != tc.want {
			t.Fatalf("q=%g: got %g want %g", tc.q, got, tc.want)
		}
	}
	if got := QuantileSelect(nil, 0.5); got != 0 {
		t.Fatalf("empty: got %g want 0", got)
	}
}

func TestMedianFloatsDoesNotModifyInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := MedianFloats(xs); got != 3 {
		t.Fatalf("median: got %g want 3", got)
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatalf("input modified: %v", xs)
	}
	if got := MedianFloats([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median: got %g want 2.5", got)
	}
	if got := MedianFloats(nil); got != 0 {
		t.Fatalf("empty median: got %g want 0", got)
	}
}
