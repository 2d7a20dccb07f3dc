package pulse

import (
	"math"
	"testing"

	"bhss/internal/alloctest"
)

// TestHotPathZeroAlloc asserts the steady-state zero-allocation contract of
// the Append-style modulation hot paths when the caller reuses buffers.
func TestHotPathZeroAlloc(t *testing.T) {
	const sps = 8
	g := Taps(sps)
	chips := make([]complex128, 128)
	inv := 1 / math.Sqrt2
	for i := range chips {
		chips[i] = complex(inv*float64(1-2*(i&1)), inv*float64(1-2*((i>>1)&1)))
	}

	var mod []complex128
	alloctest.AssertZero(t, "ModulateAppend", func() {
		mod = ModulateAppend(mod[:0], chips, g)
	})

	samples := make([]complex128, len(mod))
	copy(samples, mod)
	var dem []complex128
	alloctest.AssertZero(t, "DemodulateAppend", func() {
		dem = DemodulateAppend(dem[:0], samples, g, 0)
	})
	if len(dem) != len(chips) {
		t.Fatalf("demodulated %d chips from %d samples, want %d", len(dem), len(samples), len(chips))
	}
}
