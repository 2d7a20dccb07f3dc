package core

import (
	"math"
	"testing"

	"bhss/internal/channel"
	"bhss/internal/dsp"
	"bhss/internal/hop"
	"bhss/internal/jammer"
)

func TestPulseShapeGainProperties(t *testing.T) {
	cfg := DefaultConfig(1)
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sps := range []int{2, 8, 32, 128} {
		const k = 512
		shape := rx.pulseShapeGain(sps, k)
		if len(shape) != k {
			t.Fatalf("sps=%d: %d bins", sps, len(shape))
		}
		var peak float64
		for _, v := range shape {
			if v < 0.05-1e-12 || v > 1+1e-12 {
				t.Fatalf("sps=%d: shape value %v outside [floor, 1]", sps, v)
			}
			if v > peak {
				peak = v
			}
		}
		if math.Abs(peak-1) > 1e-9 {
			t.Fatalf("sps=%d: peak %v, want 1", sps, peak)
		}
		// The peak sits at DC for the half-sine pulse.
		if shape[0] < 0.99 {
			t.Fatalf("sps=%d: DC gain %v, want ~1", sps, shape[0])
		}
		// Cached: same slice returned.
		again := rx.pulseShapeGain(sps, k)
		if &again[0] != &shape[0] {
			t.Fatalf("sps=%d: shape not cached", sps)
		}
	}
}

func TestShapeNarrowsWithSPS(t *testing.T) {
	cfg := DefaultConfig(2)
	rx, _ := NewReceiver(cfg)
	const k = 1024
	width := func(sps int) int {
		shape := rx.pulseShapeGain(sps, k)
		n := 0
		for _, v := range shape {
			if v > 0.5 {
				n++
			}
		}
		return n
	}
	w2, w32 := width(2), width(32)
	if w32 >= w2 {
		t.Fatalf("shape should narrow with sps: w2=%d w32=%d", w2, w32)
	}
	ratio := float64(w2) / float64(w32)
	if ratio < 8 || ratio > 32 {
		t.Fatalf("half-power width ratio %v, want ~16 (eq. (1) scaling)", ratio)
	}
}

// The excision control logic must keep firing across the whole SNR range
// where despreading alone would fail: sweep the signal level against a
// fixed strong in-band jammer and check the frame survives everywhere
// above a single threshold (no detection gap).
func TestNoDetectionGapAcrossSignalLevels(t *testing.T) {
	cfg := fixedConfig(2.5, 77)
	cfg.SymbolsPerHop = 16
	payload := []byte("gapcheck")
	failuresAboveThreshold := 0
	decodedOnce := false
	for _, gain := range []float64{2, 3, 5, 8, 12, 20, 30} {
		tx, _ := NewTransmitter(cfg)
		rx, _ := NewReceiver(cfg)
		burst, err := tx.EncodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		air := append([]complex128(nil), burst.Samples...)
		for i := range air {
			air[i] *= complex(gain, 0)
		}
		jam, err := jammer.NewBandlimited(0.15625/20.0, 100, 13)
		if err != nil {
			t.Fatal(err)
		}
		rxS := air
		dsp.AddTo(rxS, jam.Emit(len(air)))
		channel.NewAWGN(0.01, 3).Add(rxS)
		got, _, err := rx.DecodeBurst(rxS)
		ok := err == nil && string(got) == string(payload)
		if decodedOnce && !ok {
			failuresAboveThreshold++
		}
		if ok {
			decodedOnce = true
		}
	}
	if !decodedOnce {
		t.Fatal("frame never decoded at any signal level")
	}
	if failuresAboveThreshold > 1 {
		t.Fatalf("%d failures above the working threshold (detection gap)", failuresAboveThreshold)
	}
}

func TestHoppingWithLargerDwell(t *testing.T) {
	// Larger dwells must still round-trip cleanly and produce fewer,
	// longer segments.
	cfg := DefaultConfig(5)
	cfg.Pattern = hop.Linear
	cfg.SymbolsPerHop = 16
	tx, rx := mustPair(t, cfg)
	payload := make([]byte, 8)
	burst, err := tx.EncodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(burst.Segments) != 2 {
		t.Fatalf("32 symbols at 16/hop should be 2 segments, got %d", len(burst.Segments))
	}
	got, _, err := rx.DecodeBurst(burst.Samples)
	if err != nil || len(got) != len(payload) {
		t.Fatalf("round trip: %v", err)
	}
}
