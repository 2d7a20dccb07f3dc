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

func TestEndToEndSNR(t *testing.T) {
	// A unit-power signal over a link with 10 dB SNR: measured SNR within
	// tolerance.
	x := make([]complex128, 50000)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 0.3*float64(i)))
	}
	p := dsp.Power(x)
	noise := NewAWGN(p/10, 3) // 10 dB below the signal
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
