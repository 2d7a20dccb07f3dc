package tracking

import (
	"math"
	"math/cmplx"
	"testing"

	"bhss/internal/channel"
	"bhss/internal/dsp"
	"bhss/internal/prng"
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

func TestCoarseCFOEstimatesOffset(t *testing.T) {
	chips := qpskChips(4096, 1)
	buf := make([]complex128, len(chips))
	for _, cfo := range []float64{0.002, -0.005, 0.01} {
		x := append([]complex128(nil), chips...)
		dsp.Mix(x, cfo, 0.3)
		got := CoarseCFOInRange(buf, x, 0.0125)
		if math.Abs(got-cfo) > 3e-4 {
			t.Fatalf("CFO %v estimated as %v", cfo, got)
		}
		// A capture shorter than its FFT is zero-padded whatever the
		// buffer held: the spectrum left in buf above must not change the
		// estimate.
		short := x[:3000]
		reused := CoarseCFOInRange(buf, short, 0.0125)
		if fresh := CoarseCFOInRange(make([]complex128, len(buf)), short, 0.0125); reused != fresh {
			t.Fatalf("CFO %v: a reused buffer estimates %v, a fresh one %v", cfo, reused, fresh)
		}
	}
}

func TestCoarseCFOZeroOnShortInput(t *testing.T) {
	if CoarseCFOInRange(nil, []complex128{1}, 0.01) != 0 {
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

// TestCostasResetMatchesFresh: a loop that tracked one burst and was reset
// processes the next burst bit for bit like a newly built loop.
func TestCostasResetMatchesFresh(t *testing.T) {
	used, _ := NewCostas(0.02)
	first := qpskChips(3000, 5)
	dsp.Mix(first, 2e-3, 1.1)
	used.SetFrequency(2e-3)
	used.Process(first)
	used.Reset()

	fresh, _ := NewCostas(0.02)
	want := qpskChips(3000, 6)
	dsp.Mix(want, -1e-3, 0.4)
	got := append([]complex128(nil), want...)
	fresh.Process(want)
	used.Process(got)
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("sample %d: reset loop %v, fresh loop %v", i, got[i], want[i])
		}
	}
	if *used != *fresh {
		t.Fatalf("reset loop state %+v, fresh loop state %+v", *used, *fresh)
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

func TestFullChainPhaseAndNoise(t *testing.T) {
	// Costas on a noisy, rotated, attenuated chip stream: end-to-end sanity.
	chips := qpskChips(20000, 7)
	x := append([]complex128(nil), chips...)
	dsp.Scale(x, 0.2)
	dsp.Mix(x, 1e-4, 0.7)
	noise := channel.NewAWGN(0.2*0.2*0.01, 8) // 20 dB SNR at the scaled level
	noise.Add(x)

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

func TestCostasPhaseWraps(t *testing.T) {
	c, _ := NewCostas(0.1)
	x := qpskChips(30000, 9)
	dsp.Mix(x, 3e-3, 0)
	c.Process(x)
	if p := c.phase; math.Abs(p) > math.Pi+1e-9 {
		t.Fatalf("phase %v not wrapped", p)
	}
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
