package dsp

import (
	"testing"

	"bhss/internal/alloctest"
)

// TestHotPathZeroAlloc asserts the steady-state zero-allocation contract for
// every //bhss:hotpath API in this package.
func TestHotPathZeroAlloc(t *testing.T) {
	x := randSignal(1024, 1)
	p := PlanFFT(1024)
	alloctest.AssertZero(t, "FFTPlan.Forward", func() { p.Forward(x) })
	alloctest.AssertZero(t, "FFTPlan.Inverse", func() { p.Inverse(x) })

	h := randSignal(129, 2)
	sig := randSignal(4096, 3)
	o := NewOverlapSave(h)
	var dst []complex128
	alloctest.AssertZero(t, "OverlapSave.ApplyFull", func() { dst = o.ApplyFull(dst[:0], sig) })
	alloctest.AssertZero(t, "OverlapSave.ApplySame", func() { dst = o.ApplySame(dst[:0], sig) })
	h2 := randSignal(129, 7)
	alloctest.AssertZero(t, "OverlapSave.SetTaps", func() { o.SetTaps(h2) })

	jam := make([]float64, 256)
	for i := range jam {
		jam[i] = 1 + 0.05*float64(i%5)
	}
	jam[40], jam[41], jam[42] = 900, 1000, 900
	target := flat(len(jam), 1)
	spec := make([]complex128, len(jam))
	var taps []complex128
	alloctest.AssertZero(t, "ShapedNotchInto", func() {
		var err error
		if taps, err = ShapedNotchInto(taps[:0], spec, jam, target, 3); err != nil {
			t.Fatal(err)
		}
	})

	a := randSignal(2048, 4)
	b := randSignal(2048, 5)
	alloctest.AssertZero(t, "DotConj", func() { _ = DotConj(a, b) })

	mix := randSignal(2048, 6)
	alloctest.AssertZero(t, "Mix", func() { _ = Mix(mix, 0.01, 0) })

	fl := make([]float64, 1024)
	for i := range fl {
		fl[i] = float64(i * 2654435761 % 1024)
	}
	alloctest.AssertZero(t, "SortFloats", func() { SortFloats(fl) })

	psd := make([]float64, 512)
	for i := range psd {
		psd[i] = 1 + 0.1*float64(i%7)
	}
	sm := make([]float64, 512)
	alloctest.AssertZero(t, "SmoothPSDInto", func() { SmoothPSDInto(sm, psd, 9) })
}
