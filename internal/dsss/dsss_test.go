package dsss

import (
	"math"
	"testing"
	"testing/quick"

	"bhss/internal/dsp"
	"bhss/internal/prng"
)

func TestSpreadDespreadRoundTrip(t *testing.T) {
	symbols := []int{0, 1, 7, 8, 15, 3, 3, 12}
	sp := NewSpreader(77)
	chips, err := sp.SpreadAppend(nil, symbols)
	if err != nil {
		t.Fatal(err)
	}
	if len(chips) != len(symbols)*ComplexChipsPerSymbol {
		t.Fatalf("chip count %d", len(chips))
	}
	de := NewDespreader(77)
	got, metrics, err := de.Despread(chips)
	if err != nil {
		t.Fatal(err)
	}
	for i := range symbols {
		if got[i] != symbols[i] {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], symbols[i])
		}
		if math.Abs(metrics[i]-16) > 1e-9 {
			t.Fatalf("clean metric %v, want 16", metrics[i])
		}
	}
}

func TestSpreadRejectsBadSymbol(t *testing.T) {
	sp := NewSpreader(1)
	if _, err := sp.SpreadAppend(nil, []int{16}); err == nil {
		t.Fatal("symbol 16 should error")
	}
	if _, err := sp.SpreadAppend(nil, []int{-1}); err == nil {
		t.Fatal("symbol -1 should error")
	}
}

func TestDespreadRejectsPartialSymbol(t *testing.T) {
	de := NewDespreader(1)
	if _, _, err := de.Despread(make([]complex128, 17)); err == nil {
		t.Fatal("partial symbol should error")
	}
}

func TestScramblingMakesStreamsDiffer(t *testing.T) {
	// Same symbols, different seeds -> different chip streams.
	symbols := []int{5, 5, 5, 5}
	a, _ := NewSpreader(1).SpreadAppend(nil, symbols)
	b, _ := NewSpreader(2).SpreadAppend(nil, symbols)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)*3/4 {
		t.Fatalf("different seeds produced %d/%d identical chips", same, len(a))
	}
}

func TestScramblingWhitensRepeatedSymbols(t *testing.T) {
	// Repeating one symbol must not produce a periodic chip stream: the
	// autocorrelation at the symbol period should be far below the peak.
	symbols := make([]int, 64)
	chips, _ := NewSpreader(3).SpreadAppend(nil, symbols)
	peak := real(dsp.DotConj(chips, chips))
	lag := ComplexChipsPerSymbol
	shifted := chips[lag:]
	off := dsp.DotConj(shifted, chips[:len(shifted)])
	if math.Hypot(real(off), imag(off)) > peak/4 {
		t.Fatalf("chip stream periodic despite scrambling: off=%v peak=%v", off, peak)
	}
}

func TestDespreadSurvivesNoise(t *testing.T) {
	src := prng.New(9)
	symbols := make([]int, 100)
	for i := range symbols {
		symbols[i] = src.Intn(16)
	}
	chips, _ := NewSpreader(42).SpreadAppend(nil, symbols)
	// Add noise at 0 dB SNR per chip: despreading gain should still give
	// near-perfect decisions (metric margin ~ sqrt(16) above noise).
	noisy := make([]complex128, len(chips))
	for i, c := range chips {
		noisy[i] = c + src.ComplexNorm()
	}
	got, _, err := NewDespreader(42).Despread(noisy)
	if err != nil {
		t.Fatal(err)
	}
	errors := 0
	for i := range symbols {
		if got[i] != symbols[i] {
			errors++
		}
	}
	if errors > 2 {
		t.Fatalf("%d/100 symbol errors at 0 dB chip SNR, want <= 2", errors)
	}
}

func TestDespreadWrongSeedFails(t *testing.T) {
	symbols := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	chips, _ := NewSpreader(100).SpreadAppend(nil, symbols)
	got, _, err := NewDespreader(101).Despread(chips)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range symbols {
		if got[i] == symbols[i] {
			correct++
		}
	}
	if correct > len(symbols)/2 {
		t.Fatalf("wrong seed decoded %d/%d symbols", correct, len(symbols))
	}
}

func TestStreamingSpreadMatchesOneShot(t *testing.T) {
	symbols := []int{3, 1, 4, 1, 5, 9, 2, 6}
	whole, _ := NewSpreader(8).SpreadAppend(nil, symbols)
	sp := NewSpreader(8)
	a, _ := sp.SpreadAppend(nil, symbols[:3])
	b, _ := sp.SpreadAppend(nil, symbols[3:])
	part := append(a, b...)
	for i := range whole {
		if whole[i] != part[i] {
			t.Fatalf("streaming spread diverges at chip %d", i)
		}
	}
}

// TestSpreadResetMatchesFresh: a spreader reset to a seed mid-stream spreads
// exactly as a fresh spreader on that seed, frame after frame.
func TestSpreadResetMatchesFresh(t *testing.T) {
	symbols := []int{3, 1, 4, 1, 5, 9, 2, 6}
	reused := NewSpreader(0)
	var chips []complex128
	for seed := uint64(1); seed <= 3; seed++ {
		want, _ := NewSpreader(seed).SpreadAppend(nil, symbols)
		reused.Reset(seed)
		chips, _ = reused.SpreadAppend(chips[:0], symbols)
		for i := range want {
			if chips[i] != want[i] {
				t.Fatalf("seed %d: reset spreader diverges at chip %d", seed, i)
			}
		}
	}
}

func TestQuickRoundTripRandomSymbols(t *testing.T) {
	f := func(seed uint64, raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		symbols := make([]int, len(raw))
		for i, b := range raw {
			symbols[i] = int(b & 0x0F)
		}
		chips, err := NewSpreader(seed).SpreadAppend(nil, symbols)
		if err != nil {
			return false
		}
		got, _, err := NewDespreader(seed).Despread(chips)
		if err != nil {
			return false
		}
		for i := range symbols {
			if got[i] != symbols[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChipStreamUnitPower(t *testing.T) {
	symbols := make([]int, 256)
	src := prng.New(4)
	for i := range symbols {
		symbols[i] = src.Intn(16)
	}
	chips, _ := NewSpreader(11).SpreadAppend(nil, symbols)
	if p := dsp.Power(chips); math.Abs(p-1) > 1e-9 {
		t.Fatalf("chip power %v, want 1", p)
	}
}

func BenchmarkSpread(b *testing.B) {
	symbols := make([]int, 1024)
	sp := NewSpreader(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sp.SpreadAppend(nil, symbols); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDespread(b *testing.B) {
	symbols := make([]int, 1024)
	chips, _ := NewSpreader(1).SpreadAppend(nil, symbols)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		de := NewDespreader(1)
		if _, _, err := de.Despread(chips); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDespreadIntoResetMatchesFresh pins the reused-despreader path the
// receiver runs: one despreader, Reset to each frame's seed and despreading
// into the previous call's storage, decides and scores every symbol bit for
// bit like a fresh NewDespreader, including after a call of another length.
func TestDespreadIntoResetMatchesFresh(t *testing.T) {
	src := prng.New(5)
	reused := NewDespreader(0)
	var syms []int
	var mets []float64
	for frame, n := range []int{12, 40, 3, 40, 1} {
		seed := uint64(1000 + frame)
		symbols := make([]int, n)
		for i := range symbols {
			symbols[i] = src.Intn(16)
		}
		chips, _ := NewSpreader(seed).SpreadAppend(nil, symbols)
		for i := range chips {
			chips[i] += src.ComplexNorm()
		}
		want, wantMet, err := NewDespreader(seed).Despread(chips)
		if err != nil {
			t.Fatal(err)
		}
		reused.Reset(seed)
		if syms, mets, err = reused.DespreadInto(syms, mets, chips); err != nil {
			t.Fatal(err)
		}
		if len(syms) != n || len(mets) != n {
			t.Fatalf("frame %d: %d symbols and %d metrics, want %d", frame, len(syms), len(mets), n)
		}
		for i := range want {
			if syms[i] != want[i] || math.Float64bits(mets[i]) != math.Float64bits(wantMet[i]) {
				t.Fatalf("frame %d symbol %d: got %d (%v), fresh despreader %d (%v)",
					frame, i, syms[i], mets[i], want[i], wantMet[i])
			}
		}
	}
}
