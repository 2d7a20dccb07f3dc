package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
)

func TestFIRProcessMatchesApply(t *testing.T) {
	taps := []complex128{0.25, 0.5, 0.25}
	x := randSignal(100, 42)

	f1 := NewFIR(taps)
	streamed := f1.Process(x)

	full := Convolve(x, taps)
	for i := range streamed {
		if !cEq(streamed[i], full[i], 1e-12) {
			t.Fatalf("sample %d: streamed %v, conv %v", i, streamed[i], full[i])
		}
	}
}

func TestFIRProcessAcrossBlocks(t *testing.T) {
	taps := []complex128{1, -0.5, 0.25, 0.1}
	x := randSignal(64, 7)

	whole := NewFIR(taps).Process(x)

	f := NewFIR(taps)
	part := append(f.Process(x[:10]), f.Process(x[10:40])...)
	part = append(part, f.Process(x[40:])...)

	for i := range whole {
		if !cEq(whole[i], part[i], 1e-12) {
			t.Fatalf("block-split output diverges at %d", i)
		}
	}
}

// complexTwin builds h as a complex-tap filter, whose Process runs the
// scalar complex-tap loop: the reference the real-tap kernel path must
// reproduce bit for bit.
func complexTwin(h []float64) *FIR {
	c := make([]complex128, len(h))
	for i, v := range h {
		c[i] = complex(v, 0)
	}
	return NewFIR(c)
}

// edgeSignal is randSignal with signed zeros and subnormals planted on
// either rail, and a 600-sample run of signed zeros opening every 4096
// samples, longer than any filter here, so some outputs sum zeros alone.
// Subnormals are sparse: each one costs a microcode assist per tap.
func edgeSignal(n int, seed uint64) []complex128 {
	x := randSignal(n, seed)
	zeros := []float64{0, math.Copysign(0, -1)}
	subnormals := []float64{math.SmallestNonzeroFloat64, -2.2e-310, 1e-315, -math.SmallestNonzeroFloat64}
	for i := range x {
		switch {
		case i%4096 < 600:
			x[i] = complex(zeros[i%2], zeros[(i/2)%2])
		case i%101 == 0:
			x[i] = complex(subnormals[i%4], imag(x[i]))
		case i%103 == 0:
			x[i] = complex(real(x[i]), subnormals[i%4])
		case i%7 == 0:
			x[i] = complex(zeros[i%2], imag(x[i]))
		case i%11 == 0:
			x[i] = complex(real(x[i]), zeros[i%2])
		}
	}
	return x
}

func sameBits(t *testing.T, name string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: output %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestFIRRealProcessBitExact pins Process on real taps to the complex-tap
// loop bit for bit: the jammer's seven hop-band filters (129 taps, 513
// below 0.625 MHz), taps with exact and negative zeros, and short filters,
// over input with signed zeros and subnormals, streamed in chunks with the
// delay line carried across calls.
func TestFIRRealProcessBitExact(t *testing.T) {
	const n = 36000
	x := edgeSignal(n, 77)
	var taps [][]float64
	for _, mhz := range []float64{10, 5, 2.5, 1.25, 0.625, 0.3125, 0.15625} {
		cutoff, k := mhz/20/2, 129
		if cutoff < 0.01 {
			k = 513
		}
		taps = append(taps, LowPassFIR(cutoff, k, Blackman, 0).rtaps)
	}
	zeros := append([]float64(nil), taps[2]...)
	negZero := math.Copysign(0, -1)
	zeros[0], zeros[5], zeros[10], zeros[len(zeros)-1] = 0, negZero, 0, negZero
	zeros[7] = math.SmallestNonzeroFloat64
	taps = append(taps, zeros, []float64{0.75}, []float64{negZero, 1}, []float64{0.5, negZero, -0.25},
		[]float64{0.1, -0.2, 0, 0.3, negZero}, []float64{1, 2, 3, 4, 5, 4, 3, 2, 1})

	for _, h := range taps {
		want := complexTwin(h).Process(x)
		for _, chunk := range []int{1, 3, 7, len(h), 4096, n} {
			f := NewFIRReal(h)
			if f.rtaps == nil {
				t.Fatal("NewFIRReal did not keep its real taps")
			}
			got := make([]complex128, 0, n)
			for i := 0; i < n; i += chunk {
				got = append(got, f.Process(x[i:min(i+chunk, n)])...)
			}
			sameBits(t, fmt.Sprintf("%d taps, chunks of %d", len(h), chunk), got, want)
		}
	}
}

// TestFIRProcessReusesScratch: once the state+input window has grown,
// Process allocates only the slice it returns.
func TestFIRProcessReusesScratch(t *testing.T) {
	x := randSignal(4096, 1)
	for _, f := range []*FIR{LowPassFIR(0.1, 129, Blackman, 0), NewFIR([]complex128{1, 0.5i, -0.25})} {
		f.Process(x)
		if avg := testing.AllocsPerRun(20, func() { f.Process(x) }); avg != 1 {
			t.Errorf("%d-tap Process: %v allocs/op, want 1 (the returned slice)", f.Len(), avg)
		}
	}
}

func TestFIRReset(t *testing.T) {
	taps := []complex128{1, 1}
	f := NewFIR(taps)
	f.Process([]complex128{5})
	f.Reset()
	out := f.Process([]complex128{1})
	if !cEq(out[0], 1, 1e-15) {
		t.Fatalf("after Reset, output = %v, want 1 (no history)", out[0])
	}
}

func TestConvolveIdentity(t *testing.T) {
	x := randSignal(20, 9)
	out := Convolve(x, []complex128{1})
	for i := range x {
		if out[i] != x[i] {
			t.Fatal("convolution with unit impulse must be identity")
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if Convolve(nil, []complex128{1}) != nil || Convolve([]complex128{1}, nil) != nil {
		t.Fatal("empty convolution should be nil")
	}
}

func TestLowPassFIRPassesAndStops(t *testing.T) {
	f := LowPassFIR(0.1, 101, Hamming, 0)
	// DC gain ~1.
	if g := gainAt(f, 0); math.Abs(g-1) > 1e-6 {
		t.Fatalf("DC gain = %v, want 1", g)
	}
	// In-band tone nearly unity.
	if g := gainAt(f, 0.05); math.Abs(g-1) > 0.05 {
		t.Fatalf("pass-band gain at 0.05 = %v", g)
	}
	// Stop band strongly attenuated.
	if g := gainAt(f, 0.25); g > 1e-3 {
		t.Fatalf("stop-band gain at 0.25 = %v, want < 1e-3", g)
	}
}

func TestLowPassFIRFiltersWidebandNoise(t *testing.T) {
	// Mix a low-frequency tone with a high-frequency tone and verify the
	// filter keeps the former and kills the latter.
	const n = 4096
	x := make([]complex128, n)
	for i := range x {
		low := cmplx.Exp(complex(0, 2*math.Pi*0.02*float64(i)))
		high := cmplx.Exp(complex(0, 2*math.Pi*0.35*float64(i)))
		x[i] = low + high
	}
	f := LowPassFIR(0.1, 129, Blackman, 0)
	y := f.Convolver().ApplySame(nil, x)
	// Power of y should be close to the power of the low tone alone (1.0).
	p := Power(y[200 : n-200])
	if math.Abs(p-1) > 0.1 {
		t.Fatalf("filtered power = %v, want ~1 (high tone removed)", p)
	}
}

func TestLowPassForAttenuationMeetsSpec(t *testing.T) {
	f := LowPassForAttenuation(0.125, 60, 0.02, 0)
	// Check attenuation past the transition band.
	for _, fr := range []float64{0.16, 0.2, 0.3, 0.45} {
		g := gainAt(f, fr)
		if DBg := 10 * math.Log10(g); DBg > -55 {
			t.Fatalf("gain at %v = %v dB, want <= -55 dB", fr, DBg)
		}
	}
	if g := gainAt(f, 0.05); math.Abs(g-1) > 0.05 {
		t.Fatalf("pass-band gain = %v", g)
	}
}

func TestLowPassForAttenuationRespectsMaxTaps(t *testing.T) {
	f := LowPassForAttenuation(0.125, 80, 0.001, 201)
	if f.Len() > 201 {
		t.Fatalf("filter has %d taps, cap was 201", f.Len())
	}
}

func TestLowPassPanicsOnBadCutoff(t *testing.T) {
	for _, c := range []float64{0, 0.5, -0.1, 0.9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("cutoff %v should panic", c)
				}
			}()
			LowPassFIR(c, 11, Hamming, 0)
		}()
	}
}

func TestWhiteningFIRNotchesJammerBand(t *testing.T) {
	// Construct a PSD with a strong narrow-band bump and verify the
	// whitening filter attenuates exactly there.
	const k = 256
	psd := make([]float64, k)
	for i := range psd {
		psd[i] = 1
	}
	// Jammer occupies bins 10..20 (positive low frequencies) with 30 dB.
	for i := 10; i <= 20; i++ {
		psd[i] = 1000
	}
	f, err := WhiteningFIR(psd, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	resp := f.FrequencyResponse(k)
	jam := cmplx.Abs(resp[15])
	clean := cmplx.Abs(resp[100])
	if jam >= clean/5 {
		t.Fatalf("whitening response: |H_jam|=%v not well below |H_clean|=%v", jam, clean)
	}
}

func TestWhiteningFIRFlatPSDIsAllpass(t *testing.T) {
	const k = 128
	psd := make([]float64, k)
	for i := range psd {
		psd[i] = 2.5
	}
	f, err := WhiteningFIR(psd, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	resp := f.FrequencyResponse(k)
	for i, r := range resp {
		if math.Abs(cmplx.Abs(r)-1) > 1e-6 {
			t.Fatalf("bin %d gain %v, want 1 for flat PSD", i, cmplx.Abs(r))
		}
	}
}

func TestWhiteningFIRSuppressesToneInTime(t *testing.T) {
	// End-to-end: wide PN-like noise plus a strong tone; after whitening
	// the tone should carry far less of the total power.
	const n = 4096
	x := randSignal(n, 5)
	tone := make([]complex128, n)
	for i := range tone {
		tone[i] = 20 * cmplx.Exp(complex(0, 2*math.Pi*0.2*float64(i)))
	}
	mixed := make([]complex128, n)
	for i := range mixed {
		mixed[i] = x[i] + tone[i]
	}
	// Estimate PSD crudely with one periodogram at K bins.
	const k = 256
	psd := make([]float64, k)
	for blk := 0; blk+k <= n; blk += k {
		seg := append([]complex128(nil), mixed[blk:blk+k]...)
		FFT(seg)
		for i, v := range seg {
			psd[i] += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	f, err := WhiteningFIR(psd, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	y := f.Convolver().ApplySame(nil, mixed)
	// Residual power at the tone frequency must be greatly reduced.
	probe := make([]complex128, n)
	for i := range probe {
		probe[i] = cmplx.Exp(complex(0, -2*math.Pi*0.2*float64(i)))
	}
	var before, after complex128
	for i := 0; i < n; i++ {
		before += mixed[i] * probe[i]
		after += y[i] * probe[i]
	}
	rb := cmplx.Abs(before) / float64(n)
	ra := cmplx.Abs(after) / float64(n)
	if ra > rb/10 {
		t.Fatalf("tone amplitude before=%v after=%v, want >=10x suppression", rb, ra)
	}
}

func TestWhiteningFIRRejectsEmptyPSD(t *testing.T) {
	if _, err := WhiteningFIR(nil, 0); err == nil {
		t.Fatal("empty PSD should be rejected")
	}
}

// gainAt returns |H(e^{j2πf})|^2 at normalized frequency f (cycles/sample)
// evaluated exactly from the taps.
func gainAt(f *FIR, freq float64) float64 {
	var acc complex128
	for n, t := range f.taps {
		ang := -2 * math.Pi * freq * float64(n)
		acc += t * cmplx.Exp(complex(0, ang))
	}
	return real(acc)*real(acc) + imag(acc)*imag(acc)
}

func TestFrequencyResponseMatchesGainAt(t *testing.T) {
	f := LowPassFIR(0.2, 33, Hamming, 0)
	const nfft = 64
	resp := f.FrequencyResponse(nfft)
	for k := 0; k < nfft; k++ {
		freq := float64(k) / nfft
		if freq >= 0.5 {
			freq -= 1
		}
		want := gainAt(f, freq)
		got := real(resp[k])*real(resp[k]) + imag(resp[k])*imag(resp[k])
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("bin %d: |H|^2 = %v, gainAt = %v", k, got, want)
		}
	}
}

func BenchmarkFIRProcess4k(b *testing.B) {
	f := LowPassFIR(0.1, 129, Blackman, 0)
	x := randSignal(4096, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Reset()
		f.Process(x)
	}
}
