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
	tx := pulse.ModulateAppend(nil, chips, pulse.Taps(16)) // bw ~ 1/16
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
	tx := pulse.ModulateAppend(nil, chips, pulse.Taps(8))
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
	tx := pulse.ModulateAppend(nil, chips, pulse.Taps(8))
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
