package spectral

import (
	"math"
	"math/cmplx"
	"testing"

	"bhss/internal/dsp"
	"bhss/internal/prng"
)

func whiteNoise(n int, power float64, seed uint64) []complex128 {
	s := prng.New(seed)
	amp := math.Sqrt(power)
	x := make([]complex128, n)
	for i := range x {
		x[i] = s.ComplexNorm() * complex(amp, 0)
	}
	return x
}

func tone(n int, freq, amp float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(amp, 0) * cmplx.Exp(complex(0, 2*math.Pi*freq*float64(i)))
	}
	return x
}

func TestWhiteNoisePSDIsFlatAtPower(t *testing.T) {
	const power = 3.0
	x := whiteNoise(1<<15, power, 1)
	for _, est := range []Estimator{{SegmentLength: 256, Window: dsp.Rectangular}, Welch(256)} {
		psd, err := est.PSD(x)
		if err != nil {
			t.Fatal(err)
		}
		var mean float64
		for _, p := range psd {
			mean += p
		}
		mean /= float64(len(psd))
		if math.Abs(mean-power)/power > 0.05 {
			t.Fatalf("%+v: mean PSD %v, want ~%v", est, mean, power)
		}
		// Flat within statistical scatter: no bin should be more than
		// 3x the mean after this much averaging.
		for i, p := range psd {
			if p > 3*mean {
				t.Fatalf("bin %d = %v sticks out of flat PSD (mean %v)", i, p, mean)
			}
		}
	}
}

func TestTonePSDPeaksAtToneBin(t *testing.T) {
	const k = 256
	const freq = 0.125 // = bin 32 of 256
	x := tone(1<<14, freq, 2)
	est := Welch(k)
	psd, err := est.PSD(x)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for i, p := range psd {
		if p > psd[peak] {
			peak = i
		}
	}
	if peak != int(freq*k) {
		t.Fatalf("peak at bin %d, want %d", peak, int(freq*k))
	}
}

func TestPSDTotalPowerMatchesSignalPower(t *testing.T) {
	// Parseval-style check: sum(psd)/K ~ signal power for noise + tone.
	x := whiteNoise(1<<14, 1, 2)
	tn := tone(len(x), 0.2, 3)
	for i := range x {
		x[i] += tn[i]
	}
	want := dsp.Power(x)
	psd, err := Welch(512).PSD(x)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range psd {
		sum += p
	}
	got := sum / float64(len(psd))
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("PSD total power %v, signal power %v", got, want)
	}
}

func TestPSDErrors(t *testing.T) {
	if _, err := Welch(0).PSD(make([]complex128, 10)); err == nil {
		t.Fatal("zero segment length should error")
	}
	if _, err := Welch(64).PSD(make([]complex128, 10)); err == nil {
		t.Fatal("short input should error")
	}
	bad := Estimator{SegmentLength: 16, Overlap: 16, Window: dsp.Hamming}
	if _, err := bad.PSD(make([]complex128, 64)); err == nil {
		t.Fatal("overlap >= segment should error")
	}
	neg := Estimator{SegmentLength: 16, Overlap: -1, Window: dsp.Hamming}
	if _, err := neg.PSD(make([]complex128, 64)); err == nil {
		t.Fatal("negative overlap should error")
	}
}

func TestOccupiedBandwidthTone(t *testing.T) {
	x := tone(1<<14, 0.1, 1)
	psd, err := Welch(256).PSD(x)
	if err != nil {
		t.Fatal(err)
	}
	bw := OccupiedBandwidth(psd, 0.99)
	if bw > 0.05 {
		t.Fatalf("tone occupied bandwidth %v, want tiny", bw)
	}
}

func TestOccupiedBandwidthWhite(t *testing.T) {
	x := whiteNoise(1<<15, 1, 3)
	psd, err := Welch(256).PSD(x)
	if err != nil {
		t.Fatal(err)
	}
	bw := OccupiedBandwidth(psd, 0.9)
	if bw < 0.8 {
		t.Fatalf("white occupied bandwidth %v, want ~0.9", bw)
	}
}

func TestOccupiedBandwidthBandLimited(t *testing.T) {
	// Low-pass filtered noise of cutoff 0.1 -> two-sided bandwidth ~0.2.
	x := whiteNoise(1<<15, 1, 4)
	f := dsp.LowPassFIR(0.1, 129, dsp.Blackman, 0)
	y := f.Convolver().ApplySame(nil, x)
	psd, err := Welch(256).PSD(y)
	if err != nil {
		t.Fatal(err)
	}
	bw := OccupiedBandwidth(psd, 0.99)
	if bw < 0.15 || bw > 0.3 {
		t.Fatalf("band-limited occupied bandwidth %v, want ~0.2", bw)
	}
}

func TestOccupiedBandwidthEdgeCases(t *testing.T) {
	if OccupiedBandwidth(nil, 0.9) != 0 {
		t.Fatal("empty PSD should give 0")
	}
	if OccupiedBandwidth([]float64{1, 1}, 0) != 0 {
		t.Fatal("zero fraction should give 0")
	}
	if OccupiedBandwidth([]float64{0, 0, 0}, 0.9) != 0 {
		t.Fatal("all-zero PSD should give 0")
	}
	if bw := OccupiedBandwidth([]float64{1, 1, 1, 1}, 2); bw != 1 {
		t.Fatalf("fraction > 1 should clamp to full band, got %v", bw)
	}
}

func TestBandPower(t *testing.T) {
	// Tone at 0.1 with power 4: band [-0.25,0.25] should capture ~4,
	// band [-0.05, 0.05] nearly nothing.
	x := tone(1<<14, 0.1, 2)
	psd, err := Welch(256).PSD(x)
	if err != nil {
		t.Fatal(err)
	}
	in := BandPower(psd, 0.5)
	out := BandPower(psd, 0.1)
	if math.Abs(in-4)/4 > 0.1 {
		t.Fatalf("in-band power %v, want ~4", in)
	}
	if out > 0.5 {
		t.Fatalf("out-of-band power %v, want ~0", out)
	}
	if BandPower(nil, 0.5) != 0 || BandPower(psd, 0) != 0 {
		t.Fatal("degenerate BandPower should be 0")
	}
	// bw > 1 clamps to the whole band = total power.
	if tot := BandPower(psd, 5); math.Abs(tot-4)/4 > 0.1 {
		t.Fatalf("full-band power %v, want ~4", tot)
	}
}

func BenchmarkWelchPSD(b *testing.B) {
	x := whiteNoise(1<<14, 1, 1)
	est := Welch(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := est.PSD(x); err != nil {
			b.Fatal(err)
		}
	}
}
