package core

import (
	"math"
	"testing"
)

// BenchmarkFilterDesign measures one excision hop's design: smoothing,
// quantization, the in-place notch design and the transform of its taps
// into the receiver's convolver. The jammer moves and changes level every
// iteration, so consecutive hops never share a design, and the design must
// allocate nothing.
func BenchmarkFilterDesign(b *testing.B) {
	r, err := NewReceiver(DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	sps := r.spsTab[len(r.spsTab)-1]
	const k = 256
	shape := r.pulseShapeGain(sps, k)
	raw := make([]float64, k)
	for i := range raw {
		// Flat noise floor with mild deterministic scatter plus a strong
		// narrow jammer — the canonical excision scenario.
		raw[i] = 1 + 0.05*math.Sin(float64(7*i))
	}
	ctx := hopFilterCtx{raw: raw, shape: shape, refN: 1}
	jam := func(c int, level float64) {
		raw[c], raw[c+1], raw[c+2] = 0.9*level, level, 0.9*level
	}
	jam(40, 1000)
	if _, err := r.notchFilter(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := 8 + i%32
		jam(c, float64(500+i%512))
		if _, err := r.notchFilter(ctx); err != nil {
			b.Fatal(err)
		}
		jam(c, 1)
	}
}
