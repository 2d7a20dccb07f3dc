package tracking

import (
	"math"
	"math/cmplx"
	"testing"

	"bhss/internal/channel"
	"bhss/internal/dsp"
	"bhss/internal/prng"
	"bhss/internal/pulse"
)

func qpskChips(n int, seed uint64) []complex128 {
	src := prng.New(seed)
	const s = 0.7071067811865476
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(src.ChipBit()*s, src.ChipBit()*s)
	}
	return out
}

func TestAGCReachesTarget(t *testing.T) {
	agc, err := NewAGC(1.0, 5e-3)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 20000)
	for i := range x {
		x[i] = 0.05 // 26 dB below target
	}
	agc.Process(x)
	tail := x[15000:]
	var mean float64
	for _, v := range tail {
		mean += math.Hypot(real(v), imag(v))
	}
	mean /= float64(len(tail))
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("AGC settled at %v, want ~1", mean)
	}
	if agc.Gain() <= 1 {
		t.Fatalf("gain %v should have grown", agc.Gain())
	}
}

func TestAGCErrors(t *testing.T) {
	if _, err := NewAGC(0, 0.01); err == nil {
		t.Fatal("zero target should error")
	}
	if _, err := NewAGC(1, 0); err == nil {
		t.Fatal("zero rate should error")
	}
	if _, err := NewAGC(1, 1); err == nil {
		t.Fatal("rate 1 should error")
	}
}

func TestCoarseCFOEstimatesOffset(t *testing.T) {
	chips := qpskChips(4096, 1)
	for _, cfo := range []float64{0.002, -0.005, 0.01} {
		x := append([]complex128(nil), chips...)
		dsp.Mix(x, cfo, 0.3)
		got := CoarseCFO(x)
		if math.Abs(got-cfo) > 3e-4 {
			t.Fatalf("CFO %v estimated as %v", cfo, got)
		}
	}
}

func TestCoarseCFOZeroOnShortInput(t *testing.T) {
	if CoarseCFO([]complex128{1}) != 0 {
		t.Fatal("degenerate input should estimate 0")
	}
}

func TestCostasRemovesStaticPhase(t *testing.T) {
	chips := qpskChips(8000, 2)
	x := append([]complex128(nil), chips...)
	offset := 0.35 // radians, inside the π/4 decision region
	dsp.Mix(x, 0, offset)
	c, err := NewCostas(0.02)
	if err != nil {
		t.Fatal(err)
	}
	c.Process(x)
	// After settling, the output constellation should align with ±1±j/√2:
	// compare decisions with the original chips.
	errors := 0
	for i := 4000; i < len(x); i++ {
		if (real(x[i]) > 0) != (real(chips[i]) > 0) || (imag(x[i]) > 0) != (imag(chips[i]) > 0) {
			errors++
		}
	}
	if errors > 10 {
		t.Fatalf("%d decision errors after phase acquisition", errors)
	}
}

func TestCostasTracksSmallCFO(t *testing.T) {
	chips := qpskChips(20000, 3)
	x := append([]complex128(nil), chips...)
	cfo := 2e-4
	dsp.Mix(x, cfo, 0.1)
	c, _ := NewCostas(0.02)
	c.Process(x)
	errors := 0
	for i := 10000; i < len(x); i++ {
		if (real(x[i]) > 0) != (real(chips[i]) > 0) || (imag(x[i]) > 0) != (imag(chips[i]) > 0) {
			errors++
		}
	}
	if errors > 20 {
		t.Fatalf("%d decision errors while tracking CFO", errors)
	}
	if got := c.Frequency(); math.Abs(got-cfo) > 5e-5 {
		t.Fatalf("tracked frequency %v, want ~%v", got, cfo)
	}
}

func TestCostasErrors(t *testing.T) {
	if _, err := NewCostas(0); err == nil {
		t.Fatal("zero bandwidth should error")
	}
	if _, err := NewCostas(0.5); err == nil {
		t.Fatal("bandwidth 0.5 should error")
	}
}

func TestCostasFrequencyClamped(t *testing.T) {
	c, _ := NewCostas(0.4999 - 0.25) // valid bandwidth
	c.MaxFreq = 0.001
	x := qpskChips(5000, 4)
	dsp.Mix(x, 0.2, 0) // absurd offset far beyond MaxFreq
	c.Process(x)
	if f := math.Abs(c.Frequency()); f > 0.001+1e-9 {
		t.Fatalf("frequency %v exceeded clamp", f)
	}
}

func TestGardnerRecoversTimingOffset(t *testing.T) {
	const sps = 8
	chips := qpskChips(3000, 5)
	g := pulse.Taps(pulse.HalfSine, sps)
	wave := pulse.Modulate(chips, g)
	// Matched filter then introduce a fractional delay of 3.3 samples.
	mf := dsp.NewFIRReal(g)
	filtered := mf.Apply(wave)
	delayed := dsp.FractionalDelay(filtered, 3.3)

	gard, err := NewGardner(sps, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	strobes := gard.Process(delayed)
	if len(strobes) < 2500 {
		t.Fatalf("only %d strobes from %d chips", len(strobes), len(chips))
	}
	// After lock, strobe decisions must match the chip stream at a fixed
	// lag. Find the lag by correlating signs over a window.
	bestLag, bestScore := 0, -1.0
	settle := 500
	for lag := 0; lag < 8; lag++ {
		score := 0.0
		for i := settle; i < len(strobes)-8; i++ {
			if i+lag >= len(chips) {
				break
			}
			if (real(strobes[i]) > 0) == (real(chips[i+lag]) > 0) {
				score++
			}
			if (imag(strobes[i]) > 0) == (imag(chips[i+lag]) > 0) {
				score++
			}
		}
		if score > bestScore {
			bestScore = score
			bestLag = lag
		}
	}
	total := 0
	errs := 0
	for i := settle; i < len(strobes)-8 && i+bestLag < len(chips); i++ {
		if (real(strobes[i]) > 0) != (real(chips[i+bestLag]) > 0) {
			errs++
		}
		if (imag(strobes[i]) > 0) != (imag(chips[i+bestLag]) > 0) {
			errs++
		}
		total += 2
	}
	if float64(errs)/float64(total) > 0.01 {
		t.Fatalf("chip error rate %v after timing recovery (lag %d)", float64(errs)/float64(total), bestLag)
	}
}

func TestGardnerTracksClockSkew(t *testing.T) {
	// A 0.2% sample-clock offset: the period estimate should move toward
	// the true period.
	const sps = 8
	const skew = 1.002
	chips := qpskChips(4000, 6)
	g := pulse.Taps(pulse.HalfSine, sps)
	wave := pulse.Modulate(chips, g)
	mf := dsp.NewFIRReal(g)
	filtered := mf.Apply(wave)
	// Resample at rate 1/skew via linear interpolation.
	resampled := make([]complex128, int(float64(len(filtered))/skew)-1)
	for i := range resampled {
		t := float64(i) * skew
		j := int(t)
		frac := t - float64(j)
		resampled[i] = filtered[j]*complex(1-frac, 0) + filtered[j+1]*complex(frac, 0)
	}
	gard, _ := NewGardner(sps, 0.02)
	gard.Process(resampled)
	wantPeriod := sps / skew
	if math.Abs(gard.Period()-wantPeriod) > 0.05 {
		t.Fatalf("period estimate %v, want ~%v", gard.Period(), wantPeriod)
	}
}

func TestGardnerErrors(t *testing.T) {
	if _, err := NewGardner(1, 0.01); err == nil {
		t.Fatal("sps < 2 should error")
	}
	if _, err := NewGardner(8, 0); err == nil {
		t.Fatal("zero bandwidth should error")
	}
}

func TestFullChainPhaseAndNoise(t *testing.T) {
	// Costas after AGC on a noisy, rotated chip stream: end-to-end sanity.
	chips := qpskChips(20000, 7)
	x := append([]complex128(nil), chips...)
	dsp.Scale(x, 0.2)
	dsp.Mix(x, 1e-4, 0.7)
	noise := channel.NewAWGN(0.2*0.2*0.01, 8) // 20 dB SNR at the scaled level
	noise.Add(x)

	agc, _ := NewAGC(1, 2e-3)
	agc.Process(x)
	c, _ := NewCostas(0.02)
	c.Process(x)

	errs := 0
	for i := 12000; i < len(x); i++ {
		if (real(x[i]) > 0) != (real(chips[i]) > 0) || (imag(x[i]) > 0) != (imag(chips[i]) > 0) {
			errs++
		}
	}
	if errs > 40 {
		t.Fatalf("%d decision errors in full chain", errs)
	}
}

func TestInterp(t *testing.T) {
	x := []complex128{0, 2, 4}
	if v := interp(x, 0.5); v != 1 {
		t.Fatalf("interp(0.5) = %v", v)
	}
	if v := interp(x, -1); v != 0 {
		t.Fatalf("interp(-1) = %v, want clamp to first", v)
	}
	if v := interp(x, 5); v != 4 {
		t.Fatalf("interp(5) = %v, want clamp to last", v)
	}
}

func TestCostasPhaseWraps(t *testing.T) {
	c, _ := NewCostas(0.1)
	x := qpskChips(30000, 9)
	dsp.Mix(x, 3e-3, 0)
	c.Process(x)
	if p := c.Phase(); math.Abs(p) > math.Pi+1e-9 {
		t.Fatalf("phase %v not wrapped", p)
	}
	_ = cmplx.Abs(0) // keep cmplx imported via use
}

// TestDerotorMatchesCmplxExp pins the Costas rotation to the
// cmplx.Exp(complex(0, −φ)) it replaced, bit for bit, over 2×10⁷ phases
// in [−π, π] and the ends and zeros of that range.
func TestDerotorMatchesCmplxExp(t *testing.T) {
	check := func(ph float64) {
		got, want := derotor(ph), cmplx.Exp(complex(0, -ph))
		if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
			math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
			t.Fatalf("phase %v: derotor %v, cmplx.Exp %v", ph, got, want)
		}
	}
	for _, ph := range []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi,
		math.Nextafter(math.Pi, 0), math.Nextafter(-math.Pi, 0)} {
		check(ph)
	}
	src := prng.New(11)
	for range 20_000_000 {
		check((2*src.Float64() - 1) * math.Pi)
	}
}
