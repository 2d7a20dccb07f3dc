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
// scrambler and the hop plan of one frame. Both sides call it with the same
// frame counter, so a lost frame cannot desynchronize the next one.
func deriveSeed(seed uint64, counter uint64, purpose uint64) uint64 {
	s := prng.New(seed ^ (counter * 0x9e3779b97f4a7c15) ^ (purpose * 0xbf58476d1ce4e5b9))
	return s.Uint64()
}

const (
	purposeScrambler = 1
	purposeHopPlan   = 2
)

// linkState is the keying both link ends derive from the pre-shared seed
// (the "Random seed" blocks of Figures 4 and 6): the validated configuration,
// the per-bandwidth tables, the frame counter, and the hop-plan source and
// spreader that startFrame reseeds for every frame. The transmitter modulates
// its bursts with it and the receiver rebuilds the preamble it acquires on,
// so the two cannot drift apart.
type linkState struct {
	cfg    Config
	dist   hop.Distribution
	spsTab []int
	// pulseTab holds each bandwidth's chip pulse g(αt), indexed like
	// spsTab.
	pulseTab [][]float64
	frame    uint64
	// hops draws the frame's hop plan, one bandwidth index per hop.
	hops *prng.Source
	// spreader carries the frame's scrambling overlay.
	spreader *dsss.Spreader
	// chips is the per-hop chip scratch reused across frames.
	//bhss:scratch
	chips []complex128
}

func newLinkState(cfg Config) (linkState, error) {
	dist, spsTab, pulseTab, err := cfg.normalize()
	if err != nil {
		return linkState{}, err
	}
	return linkState{
		cfg: cfg, dist: dist, spsTab: spsTab, pulseTab: pulseTab,
		hops: prng.New(0), spreader: dsss.NewSpreader(0),
	}, nil
}

// FrameCounter returns the number of frames encoded (transmitter) or
// consumed (receiver) so far.
func (l *linkState) FrameCounter() uint64 { return l.frame }

// startFrame restarts the hop plan and the scrambling overlay at the start
// of frame fr.
func (l *linkState) startFrame(fr uint64) {
	l.hops.Reseed(deriveSeed(l.cfg.Seed, fr, purposeHopPlan))
	l.spreader.Reset(deriveSeed(l.cfg.Seed, fr, purposeScrambler))
}

// nextHop draws the next hop's index into the distribution's bandwidths.
func (l *linkState) nextHop() int { return l.hops.Choose(l.dist.Probs) }

// burstSamples returns the length in samples of nSymbols symbols sent from
// the start of frame fr. It replays the frame's hop plan, so modulating the
// frame takes a startFrame after it.
func (l *linkState) burstSamples(fr uint64, nSymbols int) int {
	l.startFrame(fr)
	total := 0
	for pos := 0; pos < nSymbols; pos += l.cfg.SymbolsPerHop {
		n := min(l.cfg.SymbolsPerHop, nSymbols-pos)
		total += n * dsss.ComplexChipsPerSymbol * l.spsTab[l.nextHop()]
	}
	return total
}

// modulate spreads, scrambles and pulse-shapes symbols hop by hop, drawing
// each hop's bandwidth from the frame's plan, and appends the samples to
// dst. It continues the frame from where startFrame left it. segs, when
// non-nil, receives each hop's segment; met, when non-nil, records the hops
// as transmitter spread and modulate stages.
func (l *linkState) modulate(dst []complex128, segs *[]HopSegment, symbols []int, met *obs.Pipeline) ([]complex128, error) {
	for symPos := 0; symPos < len(symbols); {
		bwIdx := l.nextHop()
		n := min(l.cfg.SymbolsPerHop, len(symbols)-symPos)
		var hsw obs.Stopwatch
		if met != nil {
			hsw = obs.Start()
		}
		chips, err := l.spreader.SpreadAppend(l.chips[:0], symbols[symPos:symPos+n])
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		l.chips = chips
		if met != nil {
			met.RecordStage(obs.StageTxSpread, hsw)
			hsw = obs.Start()
		}
		start := len(dst)
		dst = pulse.ModulateAppend(dst, chips, l.pulseTab[bwIdx])
		if met != nil {
			met.RecordStage(obs.StageTxModulate, hsw)
		}
		if segs != nil {
			*segs = append(*segs, HopSegment{
				BandwidthIndex: bwIdx,
				BandwidthMHz:   l.dist.Bandwidths[bwIdx],
				SamplesPerChip: l.spsTab[bwIdx],
				StartSymbol:    symPos,
				NumSymbols:     n,
				StartSample:    start,
				NumSamples:     len(dst) - start,
			})
		}
		symPos += n
	}
	return dst, nil
}

// Transmitter is the BHSS transmitter of Figure 4: spreading, scrambling,
// and pulse shaping with a randomly hopped pulse duration.
type Transmitter struct {
	linkState
	// met is the optional observer; nil skips all recording.
	met *obs.Pipeline
}

// SetObserver attaches a metrics pipeline to the transmitter (nil detaches).
// Recording never touches the emitted samples.
func (t *Transmitter) SetObserver(p *obs.Pipeline) { t.met = p }

// NewTransmitter returns a transmitter for the configuration.
func NewTransmitter(cfg Config) (*Transmitter, error) {
	l, err := newLinkState(cfg)
	if err != nil {
		return nil, err
	}
	return &Transmitter{linkState: l}, nil
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

	// The hop plan fixes the burst length exactly, so the sample buffer is
	// sized once and each hop modulates straight into it.
	total := t.burstSamples(fr, len(symbols))
	burst := &Burst{Samples: buf[:0]}
	if cap(buf) < total {
		burst.Samples = make([]complex128, 0, total)
	}
	nHops := (len(symbols) + t.cfg.SymbolsPerHop - 1) / t.cfg.SymbolsPerHop
	burst.Segments = make([]HopSegment, 0, nHops)
	t.startFrame(fr)
	burst.Samples, err = t.modulate(burst.Samples, &burst.Segments, symbols, t.met)
	if err != nil {
		return nil, err
	}
	if t.met != nil {
		t.met.Tx.Frames.Inc()
		t.met.Tx.Symbols.Add(int64(len(symbols)))
		t.met.Tx.Samples.Add(int64(len(burst.Samples)))
	}
	return burst, nil
}

// BurstLength returns the number of samples EncodeFrame will produce for a
// payload of n bytes on the next frame. It depends on the hop draw, so it
// replays the next frame's hop plan without advancing the frame counter.
func (t *Transmitter) BurstLength(payloadBytes int) int {
	return t.burstSamples(t.frame, frame.EncodedSymbols(payloadBytes))
}

// AverageBandwidth returns the expected occupied bandwidth of the
// configured distribution in MHz.
func (t *Transmitter) AverageBandwidth() float64 { return t.dist.AverageBandwidth() }

// Distribution returns the transmitter's hop distribution.
func (t *Transmitter) Distribution() hop.Distribution { return t.dist }
