package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestSmoothPSDFlatInvariant(t *testing.T) {
	psd := make([]float64, 64)
	for i := range psd {
		psd[i] = 2.5
	}
	out := smoothPSD(psd, 5)
	for i, v := range out {
		if math.Abs(v-2.5) > 1e-12 {
			t.Fatalf("bin %d: %v, want 2.5", i, v)
		}
	}
}

func TestSmoothPSDSpreadsPeak(t *testing.T) {
	psd := make([]float64, 32)
	psd[10] = 32
	out := smoothPSD(psd, 5)
	// Total preserved, peak reduced by the width.
	var sum float64
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-32) > 1e-9 {
		t.Fatalf("smoothing changed total: %v", sum)
	}
	if math.Abs(out[10]-32.0/5) > 1e-9 {
		t.Fatalf("peak after width-5 smoothing: %v", out[10])
	}
	if out[8] != out[12] {
		t.Fatal("smoothing should be symmetric around the peak")
	}
}

func TestSmoothPSDCircular(t *testing.T) {
	psd := make([]float64, 16)
	psd[0] = 16
	out := smoothPSD(psd, 3)
	// Wraps: bins 15, 0, 1 share the peak.
	if out[15] != out[1] || out[15] == 0 {
		t.Fatalf("circular smoothing broken: %v vs %v", out[15], out[1])
	}
}

func TestSmoothPSDDegenerate(t *testing.T) {
	if len(smoothPSD(nil, 5)) != 0 {
		t.Fatal("empty input should yield empty output")
	}
	psd := []float64{1, 2, 3}
	out := smoothPSD(psd, 0) // forced to width 1 = identity
	for i := range psd {
		if out[i] != psd[i] {
			t.Fatal("width<1 should behave as identity")
		}
	}
	// Even widths round up to odd.
	outEven := smoothPSD(psd, 2)
	outOdd := smoothPSD(psd, 3)
	for i := range psd {
		if outEven[i] != outOdd[i] {
			t.Fatal("even width should round up")
		}
	}
}

func TestNotchFIRCutsOnlyJammedBins(t *testing.T) {
	const k = 256
	psd := make([]float64, k)
	for i := range psd {
		psd[i] = 1
	}
	for i := 30; i <= 36; i++ {
		psd[i] = 400
	}
	f, err := ShapedNotchFIR(psd, flat(k, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	resp := f.FrequencyResponse(k)
	// Jammed bins strongly attenuated.
	if g := cmplx.Abs(resp[33]); g > 0.1 {
		t.Fatalf("jammed bin gain %v, want << 1", g)
	}
	// Clean bins pass near unity (allow filter-length ripple).
	for _, bin := range []int{0, 100, 150, 200} {
		if g := cmplx.Abs(resp[bin]); math.Abs(g-1) > 0.15 {
			t.Fatalf("clean bin %d gain %v, want ~1", bin, g)
		}
	}
}

func TestNotchFIRRejectsBadInput(t *testing.T) {
	for i, fn := range []func() (*FIR, error){
		func() (*FIR, error) { return ShapedNotchFIR(nil, nil, 4) },
		func() (*FIR, error) { return ShapedNotchFIR([]float64{1, 2}, []float64{1}, 4) },
		func() (*FIR, error) { return ShapedNotchFIR([]float64{1, 1, 1}, []float64{1, 1, 1}, 0.5) },
	} {
		if _, err := fn(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	if _, err := ShapedNotchInto(nil, make([]complex128, 2), []float64{1, 1, 1}, []float64{1, 1, 1}, 4); err == nil {
		t.Fatal("design scratch shorter than the PSD: expected error")
	}
}

func TestShapedNotchFIRRespectsTarget(t *testing.T) {
	const k = 128
	psd := make([]float64, k)
	target := make([]float64, k)
	for i := range psd {
		target[i] = 1
		psd[i] = 1
	}
	// A "signal peak" allowed by the shaped target...
	psd[10], target[10] = 8, 10
	// ...and a jammer exceeding its target.
	psd[40], target[40] = 50, 1
	f, err := ShapedNotchFIR(psd, target, 3)
	if err != nil {
		t.Fatal(err)
	}
	resp := f.FrequencyResponse(k)
	if g := cmplx.Abs(resp[10]); math.Abs(g-1) > 0.2 {
		t.Fatalf("allowed peak attenuated: gain %v", g)
	}
	if g := cmplx.Abs(resp[40]); g > 0.3 {
		t.Fatalf("jammer bin kept: gain %v", g)
	}
}

func TestShapedNotchFIRZeroTargetBins(t *testing.T) {
	psd := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	target := make([]float64, 8) // all zero: every bin above target
	f, err := ShapedNotchFIR(psd, target, 2)
	if err != nil {
		t.Fatal(err)
	}
	resp := f.FrequencyResponse(8)
	for i, r := range resp {
		if cmplx.Abs(r) > 0.1 {
			t.Fatalf("bin %d should be suppressed, gain %v", i, cmplx.Abs(r))
		}
	}
}

func TestLinearPhaseFromMagnitudeGroupDelay(t *testing.T) {
	// An asymmetric (one-sided) notch: taps must be complex but the
	// filter must remain exactly linear-phase, i.e. an impulse passes
	// with only the (L-1)/2 delay that ApplySame compensates.
	const k = 128
	spec := make([]complex128, k)
	for i := range spec {
		spec[i] = 1
	}
	for i := 20; i < 25; i++ {
		spec[i] = 0.01
	}
	taps, err := linearPhaseInto(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFIR(taps)
	if f.Len()%2 != 1 {
		t.Fatalf("tap count %d should be odd", f.Len())
	}
	// Apply to an impulse: the output should re-center the impulse.
	x := make([]complex128, 64)
	x[32] = 1
	y := f.Convolver().ApplySame(nil, x)
	if peak := ArgMaxAbs(y); peak != 32 {
		t.Fatalf("impulse moved to %d, want 32", peak)
	}
	// A pass-band tone survives with ~unit amplitude and no phase shift
	// at the center.
	n := 512
	tone := make([]complex128, n)
	for i := range tone {
		tone[i] = cmplx.Exp(complex(0, 2*math.Pi*0.35*float64(i)))
	}
	out := f.Convolver().ApplySame(nil, tone)
	mid := n / 2
	ratio := out[mid] / tone[mid]
	if cmplx.Abs(ratio-1) > 0.1 {
		t.Fatalf("pass-band tone distorted: ratio %v", ratio)
	}
}

func TestLinearPhaseFromMagnitudeRejectsShortInput(t *testing.T) {
	if _, err := linearPhaseInto(nil, []complex128{1, 2}); err == nil {
		t.Fatal("short magnitude should be rejected")
	}
}

func TestNotchFIREndToEndSuppressesNarrowJam(t *testing.T) {
	// Wideband signal + narrow jam; notch removes the jam and leaves the
	// signal nearly untouched.
	const n = 8192
	sig := randSignal(n, 21)
	jam := make([]complex128, n)
	for i := range jam {
		jam[i] = 15 * cmplx.Exp(complex(0, 2*math.Pi*0.11*float64(i)))
	}
	mixed := make([]complex128, n)
	for i := range mixed {
		mixed[i] = sig[i] + jam[i]
	}
	const k = 512
	psd := make([]float64, k)
	for blk := 0; blk+k <= n; blk += k {
		seg := append([]complex128(nil), mixed[blk:blk+k]...)
		FFT(seg)
		for i, v := range seg {
			psd[i] += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	smoothed := smoothPSD(psd, 3)
	f, err := ShapedNotchFIR(smoothed, flat(k, MedianFloats(smoothed)), 6)
	if err != nil {
		t.Fatal(err)
	}
	out := f.Convolver().ApplySame(nil, mixed)
	resid := make([]complex128, n)
	fSig := f.Convolver().ApplySame(nil, sig)
	for i := range resid {
		resid[i] = out[i] - fSig[i]
	}
	// Jam power 225 must drop by at least 15 dB.
	if p := Power(resid[k : n-k]); p > 225/30 {
		t.Fatalf("residual jam power %v", p)
	}
	// Signal passes with most of its power.
	if p := Power(fSig[k : n-k]); p < 0.8 {
		t.Fatalf("signal power after notch %v", p)
	}
}

// smoothPSD returns SmoothPSDInto's smoothing of psd in a new slice.
func smoothPSD(psd []float64, width int) []float64 {
	out := make([]float64, len(psd))
	SmoothPSDInto(out, psd, width)
	return out
}

// flat returns an n-bin notch target at a constant level.
func flat(n int, level float64) []float64 {
	t := make([]float64, n)
	for i := range t {
		t[i] = level
	}
	return t
}
