package spectral

import (
	"math"
	"testing"

	"bhss/internal/alloctest"
)

// TestHotPathZeroAlloc asserts PSDInto's steady-state zero-allocation
// contract on the power-of-two fast path.
func TestHotPathZeroAlloc(t *testing.T) {
	est := Welch(256)
	r, err := est.Reusable()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 4096)
	for i := range x {
		th := 2 * math.Pi * 0.05 * float64(i)
		x[i] = complex(math.Cos(th), math.Sin(th))
	}
	dst := make([]float64, est.SegmentLength)
	alloctest.AssertZero(t, "Reusable.PSDInto", func() {
		if err := r.PSDInto(dst, x); err != nil {
			t.Fatal(err)
		}
	})
}
