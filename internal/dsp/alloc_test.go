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
