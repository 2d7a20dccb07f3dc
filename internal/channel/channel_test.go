package channel

import (
	"math"
	"math/cmplx"
	"testing"

	"bhss/internal/dsp"
	"bhss/internal/prng"
)

func constSignal(n int, v complex128) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = v
	}
	return x
}

func TestAWGNVariance(t *testing.T) {
	a := NewAWGN(2.5, 1)
	x := make([]complex128, 100000)
	a.Add(x)
	if p := dsp.Power(x); math.Abs(p-2.5)/2.5 > 0.03 {
		t.Fatalf("noise power %v, want 2.5", p)
	}
	if a.Variance() != 2.5 {
		t.Fatal("Variance accessor wrong")
	}
}

func TestAWGNZeroVarianceIsNoop(t *testing.T) {
	a := NewAWGN(0, 1)
	x := constSignal(16, 1+1i)
	a.Add(x)
	for _, v := range x {
		if v != 1+1i {
			t.Fatal("zero-variance noise changed the signal")
		}
	}
}

// TestAWGNDeterministic pins Add to the per-sample draw it replaced,
// x[i] += ComplexNorm()·amp, bit for bit, and shows the stream is the
// same however the calls split it.
func TestAWGNDeterministic(t *testing.T) {
	const n = 1000
	sig := make([]complex128, n)
	for i := range sig {
		sig[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	src := prng.New(7)
	g := complex(math.Sqrt(2.5), 0)
	want := append([]complex128(nil), sig...)
	for i := range want {
		want[i] += src.ComplexNorm() * g
	}

	whole := append([]complex128(nil), sig...)
	NewAWGN(2.5, 7).Add(whole)
	split := append([]complex128(nil), sig...)
	a := NewAWGN(2.5, 7)
	for rest, k := split, 1; len(rest) > 0; k = k*3 + 1 {
		k = min(k, len(rest))
		a.Add(rest[:k])
		rest = rest[k:]
	}
	for i := range want {
		for _, got := range []complex128{whole[i], split[i]} {
			if math.Float64bits(real(got)) != math.Float64bits(real(want[i])) ||
				math.Float64bits(imag(got)) != math.Float64bits(imag(want[i])) {
				t.Fatalf("sample %d: Add gives %v, per-sample draws %v", i, got, want[i])
			}
		}
	}
}

func TestAWGNAddAllocs(t *testing.T) {
	a := NewAWGN(1, 3)
	x := make([]complex128, 1000)
	if n := testing.AllocsPerRun(20, func() { a.Add(x) }); n != 0 {
		t.Fatalf("AWGN.Add allocates %v times per call, want 0", n)
	}
}

func TestAWGNPanicsOnNegativeVariance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative variance should panic")
		}
	}()
	NewAWGN(-1, 0)
}

func TestAttenuateAndGain(t *testing.T) {
	x := constSignal(10, 1)
	Attenuate(x, 20) // -20 dB -> amplitude 0.1
	if math.Abs(real(x[0])-0.1) > 1e-12 {
		t.Fatalf("attenuated amplitude %v, want 0.1", x[0])
	}
	Gain(x, 20)
	if math.Abs(real(x[0])-1) > 1e-12 {
		t.Fatalf("gain did not undo attenuation: %v", x[0])
	}
}

func TestImpairmentsDelayAndCFO(t *testing.T) {
	im := Impairments{CFO: 0.25, Phase: 0, Delay: 2}
	x := []complex128{1, 1, 1, 1, 1, 1}
	y := im.Apply(x)
	if y[0] != 0 || y[1] != 0 {
		t.Fatalf("delay not applied: %v", y[:2])
	}
	// After the delay, samples rotate by 2π*0.25 per sample.
	r3 := y[3] / y[2]
	if cmplx.Abs(r3-cmplx.Exp(complex(0, math.Pi/2))) > 1e-9 {
		t.Fatalf("CFO rotation per sample = %v, want e^{jπ/2}", r3)
	}
	// Original slice untouched.
	if x[0] != 1 {
		t.Fatal("Apply must not mutate its input")
	}
}

func TestImpairmentsIdentity(t *testing.T) {
	x := []complex128{1 + 2i, 3, -1i}
	y := Impairments{}.Apply(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("zero impairments must be identity")
		}
	}
}

func TestCombine(t *testing.T) {
	a := []complex128{1, 2, 3}
	b := []complex128{10, 20}
	got := Combine(a, b)
	want := []complex128{11, 22, 3}
	if len(got) != 3 {
		t.Fatalf("combined length %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("combine = %v", got)
		}
	}
	if len(Combine()) != 0 {
		t.Fatal("combining nothing should be empty")
	}
}

func TestLinkTransmit(t *testing.T) {
	l := Link{AttenuationDB: 6.0206} // ~ amplitude / 2
	x := constSignal(8, 2)
	y := l.Transmit(x)
	if math.Abs(real(y[0])-1) > 1e-3 {
		t.Fatalf("6 dB attenuated amplitude %v, want ~1", y[0])
	}
}

func TestNoiseVarForSNR(t *testing.T) {
	v := NoiseVarForSNR(1, 20)
	if math.Abs(v-0.01) > 1e-12 {
		t.Fatalf("noise var %v, want 0.01", v)
	}
	// End-to-end: signal power 4 at 3 dB SNR -> noise ~2.
	if v := NoiseVarForSNR(4, 3.0102999566); math.Abs(v-2) > 1e-6 {
		t.Fatalf("noise var %v, want 2", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative power should panic")
		}
	}()
	NoiseVarForSNR(-1, 0)
}

func TestEndToEndSNR(t *testing.T) {
	// A unit-power signal over a link with 10 dB SNR: measured SNR within
	// tolerance.
	x := make([]complex128, 50000)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 0.3*float64(i)))
	}
	p := dsp.Power(x)
	noise := NewAWGN(NoiseVarForSNR(p, 10), 3)
	y := append([]complex128(nil), x...)
	noise.Add(y)
	diff := make([]complex128, len(x))
	for i := range diff {
		diff[i] = y[i] - x[i]
	}
	snr := 10 * math.Log10(dsp.Power(x)/dsp.Power(diff))
	if math.Abs(snr-10) > 0.3 {
		t.Fatalf("realized SNR %v dB, want 10", snr)
	}
}

func TestResampleIdentityAtUnitRate(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	y := Impairments{ClockSkewPPM: 0}.Apply(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("zero skew must be identity")
		}
	}
}

func TestResampleStretches(t *testing.T) {
	// A huge artificial skew for visibility: 1e5 ppm = 10% stretch.
	x := make([]complex128, 100)
	for i := range x {
		x[i] = complex(float64(i), 0)
	}
	y := Impairments{ClockSkewPPM: 1e5}.Apply(x)
	// Sample i of the output reads position i/1.1 of the input.
	if math.Abs(real(y[11])-10) > 0.01 {
		t.Fatalf("y[11] = %v, want ~10", y[11])
	}
}

// The justification for the receiver's ideal chip-timing model: at the
// testbed's few-ppm clock skews, the accumulated timing drift over a whole
// burst stays far below one sample, so the matched-filter demodulator's
// metric is essentially untouched.
func TestRealisticSkewIsSubChipPerBurst(t *testing.T) {
	const burstSamples = 65536 // the longest frames in the experiments
	const skewPPM = 2.5        // USRP N210-class TCXO
	drift := burstSamples * skewPPM * 1e-6
	if drift > 0.5 {
		t.Fatalf("accumulated drift %v samples; the ideal-timing model would be invalid", drift)
	}
}
