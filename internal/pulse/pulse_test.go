package pulse

import (
	"math"
	"testing"
	"testing/quick"

	"bhss/internal/dsp"
	"bhss/internal/prng"
	"bhss/internal/spectral"
)

func TestTapsEnergyNormalization(t *testing.T) {
	for _, sps := range []int{1, 2, 4, 8, 16, 64, 128} {
		g := Taps(sps)
		var e float64
		for _, v := range g {
			e += v * v
		}
		if math.Abs(e-float64(sps)) > 1e-9 {
			t.Fatalf("sps=%d: energy %v, want %v", sps, e, float64(sps))
		}
	}
}

func TestTapsLength(t *testing.T) {
	if len(Taps(8)) != 8 || len(Taps(4)) != 4 {
		t.Fatal("the single-chip pulse must have sps taps")
	}
}

func TestHalfSineSymmetry(t *testing.T) {
	g := Taps(16)
	for i := range g {
		j := len(g) - 1 - i
		if math.Abs(g[i]-g[j]) > 1e-12 {
			t.Fatalf("half-sine asymmetric: g[%d]=%v g[%d]=%v", i, g[i], j, g[j])
		}
		if g[i] <= 0 {
			t.Fatalf("half-sine tap %d = %v, must be positive", i, g[i])
		}
	}
}

func TestTapsPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Taps(0) },
		func() { DemodulateAppend(nil, nil, nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func randomChips(n int, seed uint64) []complex128 {
	src := prng.New(seed)
	const s = 0.7071067811865476
	chips := make([]complex128, n)
	for i := range chips {
		chips[i] = complex(src.ChipBit()*s, src.ChipBit()*s)
	}
	return chips
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	for _, sps := range []int{2, 4, 8, 32, 128} {
		g := Taps(sps)
		chips := randomChips(50, uint64(sps))
		samples := Modulate(chips, g)
		if len(samples) != 50*sps {
			t.Fatalf("sps=%d: %d samples, want %d", sps, len(samples), 50*sps)
		}
		back := DemodulateAppend(nil, samples, g, 0)
		if len(back) != len(chips) {
			t.Fatalf("round trip length %d, want %d", len(back), len(chips))
		}
		for i := range chips {
			if d := back[i] - chips[i]; math.Hypot(real(d), imag(d)) > 1e-10 {
				t.Fatalf("sps=%d chip %d: %v != %v", sps, i, back[i], chips[i])
			}
		}
	}
}

func TestModulatePowerIsChipPower(t *testing.T) {
	for _, sps := range []int{2, 16, 64} {
		chips := randomChips(200, 7)
		samples := Modulate(chips, Taps(sps))
		if p := dsp.Power(samples); math.Abs(p-1) > 1e-9 {
			t.Fatalf("sps=%d: tx power %v, want 1", sps, p)
		}
	}
}

func TestDemodulateOffsetAndTail(t *testing.T) {
	g := Taps(4)
	chips := randomChips(10, 3)
	samples := Modulate(chips, g)
	// Prepend garbage; demodulate with matching offset.
	shifted := append(make([]complex128, 3), samples...)
	back := DemodulateAppend(nil, shifted, g, 3)
	for i := range chips {
		if d := back[i] - chips[i]; math.Hypot(real(d), imag(d)) > 1e-10 {
			t.Fatalf("offset demod chip %d mismatch", i)
		}
	}
	// Too-short input returns nil.
	if DemodulateAppend(nil, samples[:3], g, 0) != nil {
		t.Fatal("sub-chip input should demodulate to nil")
	}
	if DemodulateAppend(nil, samples, g, len(samples)) != nil {
		t.Fatal("offset at end should demodulate to nil")
	}
	// Negative offset clamps to zero.
	if got := DemodulateAppend(nil, samples, g, -5); len(got) != len(chips) {
		t.Fatalf("negative offset demod len %d", len(got))
	}
}

// The defining property of bandwidth hopping: stretching the pulse by α
// shrinks the occupied bandwidth by α (eq. (1)).
func TestBandwidthScalesInverselyWithPulseDuration(t *testing.T) {
	measure := func(sps int) float64 {
		chips := randomChips(4096, uint64(sps)*11)
		x := Modulate(chips, Taps(sps))
		psd, err := spectral.Welch(1024).PSD(x)
		if err != nil {
			t.Fatal(err)
		}
		return spectral.OccupiedBandwidth(psd, 0.9)
	}
	bw2 := measure(2)
	bw8 := measure(8)
	bw32 := measure(32)
	r1 := bw2 / bw8
	r2 := bw8 / bw32
	if r1 < 2.5 || r1 > 6 {
		t.Fatalf("bw(sps=2)/bw(sps=8) = %v, want ~4", r1)
	}
	if r2 < 2.5 || r2 > 6 {
		t.Fatalf("bw(sps=8)/bw(sps=32) = %v, want ~4", r2)
	}
}

func TestQuickRoundTripArbitraryChips(t *testing.T) {
	f := func(seed uint64, spsRaw uint8) bool {
		sps := 1 << (spsRaw % 6) // 1..32
		g := Taps(sps)
		chips := randomChips(17, seed)
		back := DemodulateAppend(nil, Modulate(chips, g), g, 0)
		for i := range chips {
			if d := back[i] - chips[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkModulateSps8(b *testing.B) {
	g := Taps(8)
	chips := randomChips(4096, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Modulate(chips, g)
	}
}

func BenchmarkDemodulateSps8(b *testing.B) {
	g := Taps(8)
	samples := Modulate(randomChips(4096, 1), g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DemodulateAppend(nil, samples, g, 0)
	}
}
