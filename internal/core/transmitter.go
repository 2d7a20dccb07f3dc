package core

import (
	"fmt"

	"bhss/internal/dsss"
	"bhss/internal/frame"
	"bhss/internal/hop"
	"bhss/internal/obs"
	"bhss/internal/prng"
	"bhss/internal/pulse"
)

// HopSegment records one hop of a transmitted burst: which bandwidth was
// used and which sample/symbol span it covers. Receivers regenerate the
// identical segmentation from the shared seed.
type HopSegment struct {
	// BandwidthIndex indexes the distribution's bandwidth set.
	BandwidthIndex int
	// BandwidthMHz is the hop's occupied bandwidth.
	BandwidthMHz float64
	// SamplesPerChip realizes the bandwidth at the fixed sampling rate.
	SamplesPerChip int
	// StartSymbol and NumSymbols give the span in DSSS symbols.
	StartSymbol, NumSymbols int
	// StartSample and NumSamples give the span in burst samples.
	StartSample, NumSamples int
}

// Burst is one transmitted frame: the samples plus the hop segmentation
// (the latter is diagnostic; a receiver never needs it over the air).
type Burst struct {
	Samples  []complex128
	Segments []HopSegment
}

// deriveSeed expands the pre-shared seed into independent sub-seeds for the
// scrambler and the hop schedule of one frame. Both sides call it with the
// same frame counter, so a lost frame cannot desynchronize the next one.
func deriveSeed(seed uint64, counter uint64, purpose uint64) uint64 {
	s := prng.New(seed ^ (counter * 0x9e3779b97f4a7c15) ^ (purpose * 0xbf58476d1ce4e5b9))
	return s.Uint64()
}

const (
	purposeScrambler = 1
	purposeHopPlan   = 2
)

// Transmitter is the BHSS transmitter of Figure 4: spreading, scrambling,
// and pulse shaping with a randomly hopped pulse duration.
type Transmitter struct {
	cfg    Config
	dist   hop.Distribution
	spsTab []int
	// pulseTab holds each bandwidth's chip pulse, the transmitter's g(αt)
	// table.
	pulseTab [][]float64
	frame    uint64
	// met is the optional observer; nil skips all recording.
	met *obs.Pipeline
	// chipBuf is the per-hop chip scratch reused across EncodeFrame calls.
	//bhss:scratch
	chipBuf []complex128
}

// SetObserver attaches a metrics pipeline to the transmitter (nil detaches).
// Recording never touches the emitted samples.
func (t *Transmitter) SetObserver(p *obs.Pipeline) { t.met = p }

// NewTransmitter returns a transmitter for the configuration.
func NewTransmitter(cfg Config) (*Transmitter, error) {
	dist, spsTab, pulseTab, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	return &Transmitter{cfg: cfg, dist: dist, spsTab: spsTab, pulseTab: pulseTab}, nil
}

// FrameCounter returns the number of frames encoded so far.
func (t *Transmitter) FrameCounter() uint64 { return t.frame }

// planHops draws the hop plan for nSymbols symbols of frame fr.
func planHops(cfg Config, dist hop.Distribution, fr uint64, nSymbols int) ([]int, error) {
	sched, err := hop.NewSchedule(dist, deriveSeed(cfg.Seed, fr, purposeHopPlan), cfg.SymbolsPerHop)
	if err != nil {
		return nil, err
	}
	return sched.PlanHops(nSymbols), nil
}

// burstSamples returns the length in samples of a burst of nSymbols
// symbols sent on the hop plan.
func (t *Transmitter) burstSamples(plan []int, nSymbols int) int {
	total := 0
	for i, bwIdx := range plan {
		n := min(t.cfg.SymbolsPerHop, nSymbols-i*t.cfg.SymbolsPerHop)
		total += n * dsss.ComplexChipsPerSymbol * t.spsTab[bwIdx]
	}
	return total
}

// EncodeFrame frames, spreads, scrambles and pulse-shapes one payload,
// advancing the frame counter. The returned burst carries the samples to
// put on the air.
func (t *Transmitter) EncodeFrame(payload []byte) (*Burst, error) {
	return t.EncodeFrameInto(nil, payload)
}

// EncodeFrameInto is EncodeFrame encoding into buf's storage: when buf has
// enough capacity for the burst, no sample buffer is allocated and
// burst.Samples aliases buf's array (callers reuse it with
// EncodeFrameInto(prev.Samples[:0], ...)). Steady-state senders amortize
// the dominant per-frame allocation away; EncodeFrame is the convenience
// form with a fresh buffer.
func (t *Transmitter) EncodeFrameInto(buf []complex128, payload []byte) (*Burst, error) {
	var esw obs.Stopwatch
	if t.met != nil {
		esw = obs.Start()
		defer t.met.RecordStage(obs.StageTxEncode, esw)
	}
	symbols, err := frame.Encode(payload)
	if err != nil {
		return nil, err
	}
	fr := t.frame
	t.frame++

	plan, err := planHops(t.cfg, t.dist, fr, len(symbols))
	if err != nil {
		return nil, err
	}
	spreader := dsss.NewSpreader(deriveSeed(t.cfg.Seed, fr, purposeScrambler))

	burst := &Burst{}
	// The hop plan fixes the burst length exactly, so the sample buffer is
	// sized once and each hop modulates straight into it.
	total := t.burstSamples(plan, len(symbols))
	if cap(buf) >= total {
		burst.Samples = buf[:0]
	} else {
		burst.Samples = make([]complex128, 0, total)
	}
	burst.Segments = make([]HopSegment, 0, len(plan))
	symPos := 0
	for _, bwIdx := range plan {
		n := t.cfg.SymbolsPerHop
		if symPos+n > len(symbols) {
			n = len(symbols) - symPos
		}
		var hsw obs.Stopwatch
		if t.met != nil {
			hsw = obs.Start()
		}
		chips, err := spreader.SpreadAppend(t.chipBuf[:0], symbols[symPos:symPos+n])
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if t.met != nil {
			t.met.RecordStage(obs.StageTxSpread, hsw)
			hsw = obs.Start()
		}
		t.chipBuf = chips
		sps := t.spsTab[bwIdx]
		start := len(burst.Samples)
		burst.Samples = pulse.ModulateAppend(burst.Samples, chips, t.pulseTab[bwIdx])
		if t.met != nil {
			t.met.RecordStage(obs.StageTxModulate, hsw)
		}
		burst.Segments = append(burst.Segments, HopSegment{
			BandwidthIndex: bwIdx,
			BandwidthMHz:   t.dist.Bandwidths[bwIdx],
			SamplesPerChip: sps,
			StartSymbol:    symPos,
			NumSymbols:     n,
			StartSample:    start,
			NumSamples:     len(burst.Samples) - start,
		})
		symPos += n
	}
	if t.met != nil {
		t.met.Tx.Frames.Inc()
		t.met.Tx.Symbols.Add(int64(len(symbols)))
		t.met.Tx.Samples.Add(int64(len(burst.Samples)))
	}
	return burst, nil
}

// BurstLength returns the number of samples EncodeFrame will produce for a
// payload of n bytes on the next frame (it depends on the hop draw, so the
// frame counter is consumed read-only via a copy of the schedule).
func (t *Transmitter) BurstLength(payloadBytes int) (int, error) {
	nSymbols := frame.EncodedSymbols(payloadBytes)
	plan, err := planHops(t.cfg, t.dist, t.frame, nSymbols)
	if err != nil {
		return 0, err
	}
	return t.burstSamples(plan, nSymbols), nil
}

// AverageBandwidth returns the expected occupied bandwidth of the
// configured distribution in MHz.
func (t *Transmitter) AverageBandwidth() float64 { return t.dist.AverageBandwidth() }

// Distribution returns the transmitter's hop distribution.
func (t *Transmitter) Distribution() hop.Distribution { return t.dist }
