package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"bhss/internal/channel"
	"bhss/internal/dsp"
	"bhss/internal/hop"
	"bhss/internal/impair"
	"bhss/internal/jammer"
	"bhss/internal/spectral"
)

func fixedConfig(bwMHz float64, seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Pattern = hop.Fixed
	cfg.Bandwidths = []float64{bwMHz}
	return cfg
}

func mustPair(t *testing.T, cfg Config) (*Transmitter, *Receiver) {
	t.Helper()
	tx, err := NewTransmitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tx, rx
}

func TestCleanRoundTripAllPatterns(t *testing.T) {
	payload := []byte("bandwidth hopping spread spectrum")
	for _, p := range []hop.Pattern{hop.Fixed, hop.Linear, hop.Exponential, hop.Parabolic} {
		cfg := DefaultConfig(42)
		cfg.Pattern = p
		tx, rx := mustPair(t, cfg)
		for i := 0; i < 3; i++ {
			burst, err := tx.EncodeFrame(payload)
			if err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			got, stats, err := rx.DecodeBurst(burst.Samples)
			if err != nil {
				t.Fatalf("%v frame %d: %v", p, i, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("%v frame %d: payload mismatch", p, i)
			}
			// A clean channel may still trip the excision detector on
			// estimation scatter; the quantile-referenced notch makes
			// that benign (sub-3% metric cost), so require near-ideal.
			if stats.MeanMetric < 15.5 {
				t.Fatalf("%v: clean metric %v, want ~16", p, stats.MeanMetric)
			}
		}
		if tx.FrameCounter() != 3 || rx.FrameCounter() != 3 {
			t.Fatalf("%v: frame counters %d/%d", p, tx.FrameCounter(), rx.FrameCounter())
		}
	}
}

func TestRoundTripEmptyAndMaxPayload(t *testing.T) {
	cfg := DefaultConfig(7)
	tx, rx := mustPair(t, cfg)
	for _, payload := range [][]byte{{}, bytes.Repeat([]byte{0x5A}, 127)} {
		burst, err := tx.EncodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := rx.DecodeBurst(burst.Samples)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) && len(payload) > 0 {
			t.Fatal("payload mismatch")
		}
	}
}

func TestBurstStructure(t *testing.T) {
	cfg := DefaultConfig(1)
	tx, _ := mustPair(t, cfg)
	burst, err := tx.EncodeFrame([]byte("structure"))
	if err != nil {
		t.Fatal(err)
	}
	// Segments tile the burst exactly.
	pos := 0
	symbols := 0
	for _, seg := range burst.Segments {
		if seg.StartSample != pos {
			t.Fatalf("segment starts at %d, want %d", seg.StartSample, pos)
		}
		if seg.NumSamples != seg.NumSymbols*16*seg.SamplesPerChip {
			t.Fatalf("segment sample count inconsistent: %+v", seg)
		}
		if seg.SamplesPerChip != int(cfg.SampleRate/seg.BandwidthMHz) {
			t.Fatalf("sps %d for bandwidth %v", seg.SamplesPerChip, seg.BandwidthMHz)
		}
		pos += seg.NumSamples
		symbols += seg.NumSymbols
	}
	if pos != len(burst.Samples) {
		t.Fatalf("segments cover %d of %d samples", pos, len(burst.Samples))
	}
	// Unit transmit power (the hopping does not change the power budget).
	if p := dsp.Power(burst.Samples); math.Abs(p-1) > 1e-9 {
		t.Fatalf("burst power %v, want 1", p)
	}
}

func TestBurstLengthMatchesEncode(t *testing.T) {
	cfg := DefaultConfig(3)
	tx, _ := mustPair(t, cfg)
	payload := []byte("predict me")
	want, err := tx.BurstLength(len(payload))
	if err != nil {
		t.Fatal(err)
	}
	burst, err := tx.EncodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(burst.Samples) != want {
		t.Fatalf("BurstLength %d, actual %d", want, len(burst.Samples))
	}
}

func TestHopSegmentsChangeBandwidth(t *testing.T) {
	cfg := DefaultConfig(5)
	tx, _ := mustPair(t, cfg)
	burst, err := tx.EncodeFrame(bytes.Repeat([]byte{0xAB}, 64))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, seg := range burst.Segments {
		seen[seg.SamplesPerChip] = true
	}
	if len(seen) < 3 {
		t.Fatalf("only %d distinct bandwidths across %d hops", len(seen), len(burst.Segments))
	}
	// Verify the per-segment occupied bandwidth follows the hop (eq. (1)).
	for _, seg := range burst.Segments {
		if seg.NumSamples < 1024 {
			continue
		}
		s := burst.Samples[seg.StartSample : seg.StartSample+seg.NumSamples]
		psd, err := spectral.Welch(256).PSD(s)
		if err != nil {
			continue
		}
		bw := spectral.OccupiedBandwidth(psd, 0.9)
		want := 1 / float64(seg.SamplesPerChip)
		if bw < want*0.5 || bw > want*3 {
			t.Fatalf("segment sps=%d: occupied bw %v, want ~%v", seg.SamplesPerChip, bw, want)
		}
	}
}

func TestRoundTripWithNoise(t *testing.T) {
	cfg := DefaultConfig(9)
	tx, rx := mustPair(t, cfg)
	noise := channel.NewAWGN(0.1, 11) // 10 dB SNR per sample
	ok := 0
	const frames = 10
	for i := 0; i < frames; i++ {
		burst, err := tx.EncodeFrame([]byte("noisy frame payload"))
		if err != nil {
			t.Fatal(err)
		}
		rxSamples := append([]complex128(nil), burst.Samples...)
		noise.Add(rxSamples)
		if got, _, err := rx.DecodeBurst(rxSamples); err == nil && bytes.Equal(got, []byte("noisy frame payload")) {
			ok++
		}
	}
	if ok < frames-1 {
		t.Fatalf("only %d/%d frames decoded at 10 dB SNR", ok, frames)
	}
}

func TestWidebandJammerLowPassFilter(t *testing.T) {
	// Narrow fixed signal (0.15625 MHz, sps=128) under a full-band jammer
	// 13 dB above the signal: the filter turns an undecodable channel
	// into a clean one.
	cfg := fixedConfig(0.15625, 21)
	cfg.FilterTaps = 1025
	// The tracking loops are the vulnerable element the LPF protects
	// (§6.1): without them an ideal matched-filter receiver would already
	// reject most out-of-band jamming.
	cfg.TrackingLoops = true
	payload := []byte("survive")

	run := func(enable bool) (bool, *RxStats) {
		c := cfg
		c.EnableFilter = enable
		tx, rx := mustPair(t, c)
		burst, err := tx.EncodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		// Free-running oscillators: the carrier loop must track this
		// offset, which it can only do once the jamming is suppressed.
		air := append([]complex128(nil), burst.Samples...)
		dsp.Mix(air, 9e-5, 0.8)
		// Signal 9, jammer 50: filtered SINR ~6 dB (loop tracks),
		// unfiltered ~-7.5 dB (loop gain collapses).
		dsp.Scale(air, 3)
		jam, err := jammer.NewBandlimited(0.5, 50, 31)
		if err != nil {
			t.Fatal(err)
		}
		rxSamples := air
		dsp.AddTo(rxSamples, jam.Emit(len(air)))
		channel.NewAWGN(0.01, 5).Add(rxSamples)
		got, stats, err := rx.DecodeBurst(rxSamples)
		return err == nil && bytes.Equal(got, payload), stats
	}

	okFiltered, stats := run(true)
	if !okFiltered {
		t.Fatal("filtered receiver failed under wideband jammer")
	}
	for _, h := range stats.Hops {
		if h.Decision != FilterLowPass {
			t.Fatalf("decision %v, want low-pass (report: %+v)", h.Decision, h)
		}
	}
	okPlain, _ := run(false)
	if okPlain {
		t.Fatal("unfiltered receiver should fail at -7 dB SJR with CFO")
	}
}

func TestNarrowbandJammerExcisionFilter(t *testing.T) {
	// Wide fixed signal (10 MHz, sps=2) under a narrow jammer 13 dB above
	// the signal: excision whitening recovers the frame.
	cfg := fixedConfig(10, 23)
	payload := []byte("excise the tone")

	run := func(enable bool) (bool, *RxStats) {
		c := cfg
		c.EnableFilter = enable
		tx, rx := mustPair(t, c)
		burst, err := tx.EncodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		jam, err := jammer.NewBandlimited(0.0078125, 20, 37)
		if err != nil {
			t.Fatal(err)
		}
		rxSamples := append([]complex128(nil), burst.Samples...)
		dsp.AddTo(rxSamples, jam.Emit(len(burst.Samples)))
		channel.NewAWGN(0.01, 6).Add(rxSamples)
		got, stats, err := rx.DecodeBurst(rxSamples)
		return err == nil && bytes.Equal(got, payload), stats
	}

	okFiltered, stats := run(true)
	if !okFiltered {
		t.Fatal("filtered receiver failed under narrowband jammer")
	}
	excised := 0
	for _, h := range stats.Hops {
		if h.Decision == FilterExcision {
			excised++
		}
	}
	if excised == 0 {
		t.Fatalf("no hop used the excision filter: %+v", stats.Hops)
	}
	okPlain, _ := run(false)
	if okPlain {
		t.Fatal("unfiltered receiver should fail at -13 dB SJR")
	}
}

func TestMatchedJammerDefeatsFixedBandwidth(t *testing.T) {
	// Case (iii) of the paper: jammer bandwidth == signal bandwidth. The
	// control logic must not engage a filter, and the frame is lost.
	cfg := fixedConfig(2.5, 29)
	tx, rx := mustPair(t, cfg)
	burst, err := tx.EncodeFrame([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	jam, err := jammer.NewBandlimited(0.125, 100, 41)
	if err != nil {
		t.Fatal(err)
	}
	rxSamples := append([]complex128(nil), burst.Samples...)
	dsp.AddTo(rxSamples, jam.Emit(len(burst.Samples)))
	channel.NewAWGN(0.01, 7).Add(rxSamples)
	_, stats, err := rx.DecodeBurst(rxSamples)
	if err == nil {
		t.Fatal("matched jammer at -20 dB SJR should kill the frame")
	}
	for _, h := range stats.Hops {
		if h.Decision == FilterLowPass {
			t.Fatalf("low-pass engaged for a matched jammer: %+v", h)
		}
	}
}

func TestHoppingEscapesMatchedJammer(t *testing.T) {
	// The BHSS claim: against the same fixed-bandwidth jammer that kills
	// the fixed-bandwidth link, a hopping link (with filtering) delivers
	// a solid fraction of frames.
	cfg := DefaultConfig(77)
	cfg.Pattern = hop.Parabolic
	tx, rx := mustPair(t, cfg)
	jam, err := jammer.NewBandlimited(0.125, 10, 43) // matched to 2.5 MHz, 10 dB up
	if err != nil {
		t.Fatal(err)
	}
	noise := channel.NewAWGN(0.01, 8)
	payload := []byte("h") // one-byte payload: 5 hops per frame
	const frames = 20
	ok := 0
	for i := 0; i < frames; i++ {
		burst, err := tx.EncodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		rxSamples := append([]complex128(nil), burst.Samples...)
		dsp.AddTo(rxSamples, jam.Emit(len(burst.Samples)))
		noise.Add(rxSamples)
		if got, _, err := rx.DecodeBurst(rxSamples); err == nil && bytes.Equal(got, payload) {
			ok++
		}
	}
	if ok < frames/4 {
		t.Fatalf("hopping link delivered only %d/%d frames against a fixed jammer", ok, frames)
	}
}

func TestPreambleSyncAcquisition(t *testing.T) {
	cfg := DefaultConfig(55)
	cfg.Sync = PreambleSync
	tx, rx := mustPair(t, cfg)
	payload := []byte("find me in the capture")
	burst, err := tx.EncodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Embed the burst at a known offset with a phase rotation and noise.
	const offset = 777
	capture := make([]complex128, offset+len(burst.Samples)+500)
	copy(capture[offset:], burst.Samples)
	dsp.Mix(capture, 0, 0.4) // static phase offset on everything
	channel.NewAWGN(0.005, 9).Add(capture)

	got, stats, err := rx.DecodeBurst(capture)
	if err != nil {
		t.Fatalf("acquisition decode failed: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after acquisition")
	}
	if stats.AcquisitionOffset != offset {
		t.Fatalf("acquired offset %d, want %d", stats.AcquisitionOffset, offset)
	}
}

func TestPreambleSyncRejectsNoiseOnlyCapture(t *testing.T) {
	cfg := DefaultConfig(56)
	cfg.Sync = PreambleSync
	_, rx := mustPair(t, cfg)
	capture := make([]complex128, 8192)
	channel.NewAWGN(1, 10).Add(capture)
	if _, _, err := rx.DecodeBurst(capture); err == nil {
		t.Fatal("noise-only capture should not decode")
	}
}

func TestTruncatedBurst(t *testing.T) {
	cfg := DefaultConfig(60)
	tx, rx := mustPair(t, cfg)
	burst, err := tx.EncodeFrame([]byte("cut short"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rx.DecodeBurst(burst.Samples[:10]); err == nil {
		t.Fatal("10-sample burst should fail")
	}
}

func TestSkipFrameKeepsLockstep(t *testing.T) {
	cfg := DefaultConfig(61)
	tx, rx := mustPair(t, cfg)
	b1, _ := tx.EncodeFrame([]byte("first"))
	b2, _ := tx.EncodeFrame([]byte("second"))
	_ = b1 // first frame never reaches the receiver
	rx.SkipFrame()
	got, _, err := rx.DecodeBurst(b2.Samples)
	if err != nil || !bytes.Equal(got, []byte("second")) {
		t.Fatalf("lockstep broken after skip: %v %q", err, got)
	}
}

func TestWrongSeedFailsToDecode(t *testing.T) {
	cfgA := DefaultConfig(100)
	cfgB := DefaultConfig(101)
	tx, err := NewTransmitter(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	burst, _ := tx.EncodeFrame([]byte("secret"))
	if got, _, err := rx.DecodeBurst(burst.Samples); err == nil {
		t.Fatalf("wrong seed decoded %q", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{SampleRate: 20},
		{SampleRate: 20, Bandwidths: []float64{10}},
		{SampleRate: 20, Bandwidths: []float64{3}, SymbolsPerHop: 4}, // 20/3 not integer
		{SampleRate: 20, Bandwidths: []float64{10}, SymbolsPerHop: 4, FilterTaps: 2},
	}
	for i, c := range bad {
		if _, err := NewTransmitter(c); err == nil {
			t.Fatalf("config %d should fail transmitter construction", i)
		}
		if _, err := NewReceiver(c); err == nil {
			t.Fatalf("config %d should fail receiver construction", i)
		}
	}
}

func TestExplicitDistributionOverride(t *testing.T) {
	dist, err := hop.NewDistribution(hop.Exponential, hop.DefaultBandwidths())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(88)
	cfg.Distribution = &dist
	cfg.Pattern = hop.Fixed // ignored when Distribution set
	tx, rx := mustPair(t, cfg)
	burst, err := tx.EncodeFrame([]byte("override"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rx.DecodeBurst(burst.Samples)
	if err != nil || !bytes.Equal(got, []byte("override")) {
		t.Fatalf("override distribution round trip: %v", err)
	}
	if tx.AverageBandwidth() != dist.AverageBandwidth() {
		t.Fatal("AverageBandwidth should reflect the override")
	}
}

func TestFilterDecisionString(t *testing.T) {
	if FilterNone.String() != "none" || FilterLowPass.String() != "low-pass" ||
		FilterExcision.String() != "excision" || FilterDecision(9).String() != "unknown" {
		t.Fatal("decision names wrong")
	}
}

func TestErrTruncatedBurstSentinel(t *testing.T) {
	cfg := DefaultConfig(62)
	_, rx := mustPair(t, cfg)
	_, _, err := rx.DecodeBurst(nil)
	if !errors.Is(err, ErrTruncatedBurst) {
		t.Fatalf("err = %v, want ErrTruncatedBurst", err)
	}
}

func TestRealisticClockSkewHarmless(t *testing.T) {
	// A 2.5 ppm sample-clock mismatch (USRP-class TCXO) accumulates to a
	// fraction of a sample per burst; the matched-filter demodulator must
	// shrug it off — this validates the ideal chip-timing model the
	// receiver uses (DESIGN.md §2).
	cfg := DefaultConfig(314)
	tx, rx := mustPair(t, cfg)
	payload := []byte("skewed but fine")
	burst, err := tx.EncodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	clock, err := impair.NewFromSpec("ppm=2.5", cfg.SampleRate, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The streaming resampler holds back its look-ahead; trailing silence
	// flushes it, and the receiver gets the burst's own length back.
	air := append(append([]complex128(nil), burst.Samples...), 0, 0, 0, 0)
	got, stats, err := rx.DecodeBurst(clock.Process(air)[:len(burst.Samples)])
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("decode under realistic skew: %v", err)
	}
	if stats.MeanMetric < 15.5 {
		t.Fatalf("metric %v under 2.5 ppm skew, want ~16", stats.MeanMetric)
	}
}
