package bhss

import (
	"bytes"
	"math"
	"testing"
)

func TestPublicRoundTrip(t *testing.T) {
	cfg := DefaultConfig(0xfeed)
	tx, err := NewTransmitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("public api round trip")
	burst, err := tx.EncodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := rx.DecodeBurst(burst.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
	if len(stats.Hops) == 0 {
		t.Fatal("missing hop diagnostics")
	}
}

func TestSimLinkCleanChannel(t *testing.T) {
	link, err := NewSimLink(DefaultConfig(7), ChannelModel{NoiseVar: 0.01, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	plr, err := link.Run([]byte("clean"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if plr != 0 {
		t.Fatalf("clean-channel PLR %v", plr)
	}
}

func TestSimLinkHoppingBeatsFixedUnderJamming(t *testing.T) {
	jammed := func(pattern Pattern, bws []float64) float64 {
		cfg := DefaultConfig(11)
		cfg.Pattern = pattern
		if bws != nil {
			cfg.Bandwidths = bws
		}
		jam, err := NewBandlimitedJammer(2.5, 20, 20, 3) // matched to 2.5 MHz, 13 dB up
		if err != nil {
			t.Fatal(err)
		}
		link, err := NewSimLink(cfg, ChannelModel{NoiseVar: 0.01, Seed: 5}, jam)
		if err != nil {
			t.Fatal(err)
		}
		plr, err := link.Run([]byte("x"), 16)
		if err != nil {
			t.Fatal(err)
		}
		return plr
	}
	fixedPLR := jammed(FixedPattern, []float64{2.5})
	hopPLR := jammed(ParabolicPattern, nil)
	if fixedPLR < 0.9 {
		t.Fatalf("fixed matched link PLR %v, want ~1", fixedPLR)
	}
	if hopPLR > 0.6 {
		t.Fatalf("hopping link PLR %v, want well below the fixed link", hopPLR)
	}
}

func TestSimLinkValidation(t *testing.T) {
	if _, err := NewSimLink(DefaultConfig(1), ChannelModel{NoiseVar: -1}, nil); err == nil {
		t.Fatal("negative noise should error")
	}
	if _, err := NewSimLink(Config{}, ChannelModel{}, nil); err == nil {
		t.Fatal("invalid config should error")
	}
	link, _ := NewSimLink(DefaultConfig(1), ChannelModel{NoiseVar: 0.01}, nil)
	if _, err := link.Run(nil, 0); err == nil {
		t.Fatal("zero frames should error")
	}
}

func TestOptimizeMaximinDistribution(t *testing.T) {
	d, err := OptimizeMaximinDistribution(DefaultBandwidths(), 100, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edge-heavy, as the paper's parabolic pattern.
	edges := d.Probs[0] + d.Probs[len(d.Probs)-1]
	if edges < 0.25 {
		t.Fatalf("optimized distribution not edge-heavy: %v", d.Probs)
	}
}

func TestSNRImprovementBound(t *testing.T) {
	// Matched bandwidths: no improvement possible.
	if g := SNRImprovementBound(100, 0.01, 1, 1); g != 1 {
		t.Fatalf("matched γ = %v", g)
	}
	// Big offsets approach the jammer power.
	g := SNRImprovementBound(100, 0.01, 1, 0.001)
	if math.Abs(10*math.Log10(g)-20) > 1 {
		t.Fatalf("asymptotic γ = %v dB, want ~20", 10*math.Log10(g))
	}
}

func TestJammerConstructors(t *testing.T) {
	if _, err := NewBandlimitedJammer(30, 20, 1, 1); err == nil {
		t.Fatal("bandwidth above the sample rate should error")
	}
	dist, err := NewDistribution(LinearPattern, DefaultBandwidths())
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewHoppingJammer(dist, 20, 1024, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if j.Power() != 2 {
		t.Fatalf("power %v", j.Power())
	}
	r, err := NewReactiveJammer(128, 512, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.PowerBudget != 1 {
		t.Fatal("reactive jammer power")
	}
}

func TestBestResponseBandwidth(t *testing.T) {
	// A narrow edge jammer: the best response maximizes the offset.
	bw, err := BestResponseBandwidth(DefaultBandwidths(), 0.15625, 100)
	if err != nil {
		t.Fatal(err)
	}
	if bw != 10 {
		t.Fatalf("best response %v, want 10", bw)
	}
	// A matched-to-max jammer: park at the bottom.
	bw, _ = BestResponseBandwidth(DefaultBandwidths(), 10, 100)
	if bw != 0.15625 {
		t.Fatalf("best response %v, want 0.15625", bw)
	}
	if _, err := BestResponseBandwidth(nil, 1, 100); err == nil {
		t.Fatal("empty set should error")
	}
}

func TestEstimateOccupiedBandwidthMHz(t *testing.T) {
	jam, err := NewBandlimitedJammer(2.5, 20, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateOccupiedBandwidthMHz(jam.Emit(1<<15), 20)
	if err != nil {
		t.Fatal(err)
	}
	if est < 1.5 || est > 4 {
		t.Fatalf("estimated %v MHz for a 2.5 MHz jammer", est)
	}
	if _, err := EstimateOccupiedBandwidthMHz(make([]complex128, 4), 20); err == nil {
		t.Fatal("tiny capture should error")
	}
}
