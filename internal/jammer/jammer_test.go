package jammer

import (
	"math"
	"testing"

	"bhss/internal/dsp"
	"bhss/internal/hop"
	"bhss/internal/prng"
	"bhss/internal/pulse"
	"bhss/internal/spectral"
)

func measureBW(x []complex128, t *testing.T) float64 {
	t.Helper()
	psd, err := spectral.Welch(256).PSD(x)
	if err != nil {
		t.Fatal(err)
	}
	return spectral.OccupiedBandwidth(psd, 0.95)
}

func TestBandlimitedPowerBudget(t *testing.T) {
	for _, bw := range []float64{0.01, 0.1, 0.5, 1.0} {
		j, err := NewBandlimited(bw, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := j.Emit(1 << 15)
		if p := dsp.Power(x[2048:]); math.Abs(p-4)/4 > 0.15 {
			t.Fatalf("bw=%v: power %v, want ~4", bw, p)
		}
		if j.Power() != 4 {
			t.Fatal("Power accessor wrong")
		}
	}
}

func TestBandlimitedOccupiedBandwidth(t *testing.T) {
	for _, bw := range []float64{0.05, 0.25, 0.5} {
		j, err := NewBandlimited(bw, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		x := j.Emit(1 << 15)
		got := measureBW(x[2048:], t)
		if got < bw*0.6 || got > bw*1.6 {
			t.Fatalf("configured bw %v, measured %v", bw, got)
		}
	}
}

func TestBandlimitedStreamingContinuity(t *testing.T) {
	a, _ := NewBandlimited(0.2, 1, 9)
	b, _ := NewBandlimited(0.2, 1, 9)
	whole := a.Emit(1000)
	part := append(b.Emit(300), b.Emit(700)...)
	for i := range whole {
		if whole[i] != part[i] {
			t.Fatalf("streaming emission not continuous at %d", i)
		}
	}
}

// TestBandlimitedAllocs pins the jammer's heap use: a steady-state Emit
// allocates only the slice it hands the caller, and Reseed, which Hopping
// runs every hop, allocates nothing. Covers both filter lengths and the
// unfiltered full-band jammer.
func TestBandlimitedAllocs(t *testing.T) {
	for _, bw := range []float64{0.5, 0.0078125, 1} {
		j, err := NewBandlimited(bw, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		j.Emit(4096)
		if avg := testing.AllocsPerRun(20, func() { j.Emit(4096) }); avg != 1 {
			t.Errorf("bw %v: Emit %v allocs/op, want 1", bw, avg)
		}
		if avg := testing.AllocsPerRun(20, func() { j.Reseed(9) }); avg != 0 {
			t.Errorf("bw %v: Reseed %v allocs/op, want 0", bw, avg)
		}
		if avg := testing.AllocsPerRun(20, func() { j.Reseed(9); j.Emit(4096) }); avg != 1 {
			t.Errorf("bw %v: Reseed+Emit %v allocs/op, want 1", bw, avg)
		}
	}
}

// TestBandlimitedReseedMatchesFresh: a reseeded jammer, whatever it
// emitted before, streams exactly what a new one with that seed does.
func TestBandlimitedReseedMatchesFresh(t *testing.T) {
	for _, bw := range []float64{0.5, 0.0078125, 1} {
		fresh, _ := NewBandlimited(bw, 2, 21)
		want := append(fresh.Emit(700), fresh.Emit(300)...)
		j, _ := NewBandlimited(bw, 2, 20)
		j.Emit(1234)
		j.Reseed(21)
		got := append(j.Emit(700), j.Emit(300)...)
		for i := range want {
			if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
				math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
				t.Fatalf("bw %v: reseeded stream diverges at %d: %v != %v", bw, i, got[i], want[i])
			}
		}
	}
}

func TestBandlimitedErrors(t *testing.T) {
	if _, err := NewBandlimited(0, 1, 0); err == nil {
		t.Fatal("bw 0 should error")
	}
	if _, err := NewBandlimited(1.5, 1, 0); err == nil {
		t.Fatal("bw > 1 should error")
	}
	if _, err := NewBandlimited(0.5, -1, 0); err == nil {
		t.Fatal("negative power should error")
	}
}

func TestBandlimitedZeroPower(t *testing.T) {
	j, _ := NewBandlimited(0.5, 0, 0)
	for _, v := range j.Emit(100) {
		if v != 0 {
			t.Fatal("zero-power jammer must be silent")
		}
	}
}

func TestTone(t *testing.T) {
	j, err := NewTone(0.125, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := j.Emit(1 << 12)
	if p := dsp.Power(x); math.Abs(p-2)/2 > 1e-9 {
		t.Fatalf("tone power %v, want 2", p)
	}
	// Spectral peak at the right bin.
	spec := dsp.FFT(append([]complex128(nil), x[:1024]...))
	if peak := dsp.ArgMaxAbs(spec); peak != 128 {
		t.Fatalf("tone peak at bin %d, want 128", peak)
	}
	if _, err := NewTone(0.7, 1); err == nil {
		t.Fatal("out-of-range frequency should error")
	}
	if _, err := NewTone(0, -1); err == nil {
		t.Fatal("negative power should error")
	}
}

func TestTonePhaseContinuity(t *testing.T) {
	a, _ := NewTone(0.01, 1)
	b, _ := NewTone(0.01, 1)
	whole := a.Emit(200)
	part := append(b.Emit(77), b.Emit(123)...)
	for i := range whole {
		if d := whole[i] - part[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("tone discontinuity at %d", i)
		}
	}
}

func TestSweepCoversBand(t *testing.T) {
	j, err := NewSweep(0.8, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := j.Emit(1 << 14)
	if p := dsp.Power(x); math.Abs(p-1) > 1e-9 {
		t.Fatalf("sweep power %v, want 1", p)
	}
	bw := measureBW(x, t)
	if bw < 0.5 {
		t.Fatalf("sweep occupied bandwidth %v, want ~0.8", bw)
	}
	if _, err := NewSweep(0, 100, 1); err == nil {
		t.Fatal("zero span should error")
	}
	if _, err := NewSweep(0.5, 1, 1); err == nil {
		t.Fatal("period 1 should error")
	}
	if _, err := NewSweep(0.5, 100, -1); err == nil {
		t.Fatal("negative power should error")
	}
}

func TestPulsedDutyCycle(t *testing.T) {
	inner, _ := NewBandlimited(1, 2, 3)
	j, err := NewPulsed(inner, 0.25, 1000)
	if err != nil {
		t.Fatal(err)
	}
	x := j.Emit(100000)
	zero := 0
	for _, v := range x {
		if v == 0 {
			zero++
		}
	}
	frac := float64(zero) / float64(len(x))
	if math.Abs(frac-0.75) > 0.01 {
		t.Fatalf("off fraction %v, want 0.75", frac)
	}
	if math.Abs(j.Power()-0.5) > 1e-9 {
		t.Fatalf("average power %v, want 0.5", j.Power())
	}
	if _, err := NewPulsed(inner, 2, 10); err == nil {
		t.Fatal("duty > 1 should error")
	}
	if _, err := NewPulsed(inner, 0.5, 0); err == nil {
		t.Fatal("period 0 should error")
	}
}

func TestHoppingJammerChangesBandwidth(t *testing.T) {
	dist, err := hop.NewDistribution(hop.Linear, []float64{10, 0.15625})
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewHopping(dist, 20, 4096, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Over several hops we should observe both wide and narrow windows.
	sawWide, sawNarrow := false, false
	for k := 0; k < 16; k++ {
		x := j.Emit(4096)
		bw := measureBW(x, t)
		if bw > 0.25 {
			sawWide = true
		}
		if bw < 0.1 {
			sawNarrow = true
		}
	}
	if !sawWide || !sawNarrow {
		t.Fatalf("hopping jammer did not visit both bandwidths (wide=%v narrow=%v)", sawWide, sawNarrow)
	}
	if j.Power() != 1 {
		t.Fatal("power accessor wrong")
	}
}

func TestHoppingJammerErrors(t *testing.T) {
	dist, _ := hop.NewDistribution(hop.Linear, hop.DefaultBandwidths())
	if _, err := NewHopping(dist, 0, 100, 1, 1); err == nil {
		t.Fatal("zero sample rate should error")
	}
	if _, err := NewHopping(dist, 20, 0, 1, 1); err == nil {
		t.Fatal("zero samplesPerHop should error")
	}
	if _, err := NewHopping(dist, 5, 100, 1, 1); err == nil {
		t.Fatal("bandwidth above sample rate should error")
	}
	bad := hop.Distribution{Bandwidths: []float64{1}, Probs: []float64{0.2}}
	if _, err := NewHopping(bad, 20, 100, 1, 1); err == nil {
		t.Fatal("invalid distribution should error")
	}
}

func TestReactiveJammerMatchesBandwidthAfterDelay(t *testing.T) {
	// Transmit a narrow-band signal (random chips at 16 samples/chip);
	// the reactive jammer should answer with noise of comparable (narrow)
	// bandwidth, delayed by τ.
	src := prng.New(31)
	chips := make([]complex128, 4096)
	for i := range chips {
		chips[i] = complex(src.ChipBit()*0.7, src.ChipBit()*0.7)
	}
	tx := pulse.Modulate(chips, pulse.Taps(pulse.HalfSine, 16)) // bw ~ 1/16
	r, err := NewReactive(512, 1024, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	jam := r.Jam(tx)
	if len(jam) != len(tx) {
		t.Fatalf("jam length %d, want %d", len(jam), len(tx))
	}
	// Silent before the first reaction matures.
	for i := 0; i < 1024+512-1; i++ {
		if jam[i] != 0 {
			t.Fatalf("jammer emitted at %d before first estimate + delay", i)
		}
	}
	active := jam[2048:]
	if p := dsp.Power(active); math.Abs(p-9)/9 > 0.3 {
		t.Fatalf("reactive jam power %v, want ~9", p)
	}
	bw := measureBW(active, t)
	if bw > 0.3 {
		t.Fatalf("reactive jam bandwidth %v, want narrow (~0.06)", bw)
	}
}

func TestReactiveJammerSilentOnShortInput(t *testing.T) {
	r, _ := NewReactive(10, 256, 1, 1)
	jam := r.Jam(make([]complex128, 100))
	for _, v := range jam {
		if v != 0 {
			t.Fatal("short input should produce silence")
		}
	}
}

func TestReactiveErrors(t *testing.T) {
	if _, err := NewReactive(-1, 256, 1, 0); err == nil {
		t.Fatal("negative delay should error")
	}
	if _, err := NewReactive(0, 100, 1, 0); err == nil {
		t.Fatal("non-power-of-two window should error")
	}
	if _, err := NewReactive(0, 256, -1, 0); err == nil {
		t.Fatal("negative power should error")
	}
}

func BenchmarkBandlimitedEmit(b *testing.B) {
	j, _ := NewBandlimited(0.1, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Emit(4096)
	}
}

func TestReactiveMemoryJamsFromFirstSample(t *testing.T) {
	src := prng.New(77)
	chips := make([]complex128, 2048)
	for i := range chips {
		chips[i] = complex(src.ChipBit()*0.7, src.ChipBit()*0.7)
	}
	tx := pulse.Modulate(chips, pulse.Taps(pulse.HalfSine, 8))
	r, err := NewReactive(256, 1024, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	r.Memory = true
	// First burst: head silent (nothing remembered yet).
	first := r.Jam(tx)
	for i := 0; i < 1024+256-1; i++ {
		if first[i] != 0 {
			t.Fatalf("first burst jammed at %d before any estimate", i)
		}
	}
	// Second burst: the remembered tuning covers the head immediately.
	r.NewBurst()
	second := r.Jam(tx)
	head := second[:1024]
	if p := dsp.Power(head); math.Abs(p-4)/4 > 0.4 {
		t.Fatalf("remembered-bandwidth head power %v, want ~4", p)
	}
}

func TestReactiveWithoutMemoryStaysSilentAtHead(t *testing.T) {
	src := prng.New(78)
	chips := make([]complex128, 2048)
	for i := range chips {
		chips[i] = complex(src.ChipBit()*0.7, src.ChipBit()*0.7)
	}
	tx := pulse.Modulate(chips, pulse.Taps(pulse.HalfSine, 8))
	r, _ := NewReactive(256, 1024, 4, 9)
	r.Jam(tx)
	r.NewBurst()
	second := r.Jam(tx)
	for i := 0; i < 1024+256-1; i++ {
		if second[i] != 0 {
			t.Fatalf("memoryless jammer emitted at %d", i)
		}
	}
}
