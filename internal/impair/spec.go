package impair

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"bhss/internal/prng"
	"bhss/internal/spec"
)

// Spec grammar, documented in DESIGN.md §11 "Spec grammar". The lexical
// rules every spec grammar shares are stated there once and implemented by
// internal/spec. The keys:
//
//	cfo=<Hz>        carrier frequency offset
//	phase=<rad>     initial carrier phase offset
//	ppm=<ppm>       static sample-clock offset, |ppm| <= 1000
//	drift=<ppm/s>   sample-clock drift rate, |drift| <= 1e6
//	phnoise=<dBc/Hz> Wiener phase noise: SSB density at 10 kHz offset
//	iqgain=<dB>     IQ gain imbalance
//	iqphase=<deg>   IQ quadrature phase error
//	dc=<re>[:<im>]  DC offset (rails)
//	quant=<bits>    ADC quantization, 1..24 bits (0 disables)
//	clip=<amp>      ADC full-scale amplitude (default 1.5)
//	mpath=<d:gdB:pdeg>{+<d:gdB:pdeg>}  static multipath echoes:
//	                integer delay in samples (0..4096, max 16 echoes),
//	                gain in dB, phase in degrees. The direct path is an
//	                implicit unit tap at delay 0 unless a 0-delay tap is
//	                given explicitly.
//	drop=<p>:<len>  burst dropouts: per-sample start probability p in
//	                [0,1), mean burst length in samples (>= 1)
//	seed=<uint64>   chain seed override (default: the seed passed to Chain)
//
// All values must be finite; malformed numbers and out-of-range
// parameters are errors. Zero values are identity: a stage
// whose every parameter is zero is omitted from the chain, so
// ParseSpec("") and ParseSpec("cfo=0,ppm=0") both build empty,
// bit-transparent chains.

// MpathTap is one multipath echo of a SpecConfig.
type MpathTap struct {
	Delay    int     // samples
	GainDB   float64 // tap gain in dB
	PhaseDeg float64 // tap phase in degrees
}

// Limits enforced by ParseSpec so a hostile spec cannot make Chain allocate
// unbounded memory or build a degenerate resampler.
const (
	maxEchoDelay = 4096
	maxEchoes    = 16
	maxPPM       = 1000
	maxDriftPPM  = 1e6
	maxQuantBits = 24
)

// SpecConfig is the parsed form of an impairment spec string. The zero
// value builds an empty (bit-transparent) chain.
type SpecConfig struct {
	CFOHz    float64
	PhaseRad float64

	PPM          float64
	DriftPPMPerS float64

	// PhaseNoiseDBc is the oscillator's single-sideband phase-noise
	// density L(f) in dBc/Hz at a 10 kHz offset, mapped onto the Wiener
	// model's per-sample increment via
	// sigma² = 10^(L/10)·(2π·10kHz)²/fs. HasPhaseNoise gates the stage
	// (0 dBc/Hz is a legal, extremely noisy oscillator, not "off").
	PhaseNoiseDBc float64
	HasPhaseNoise bool

	IQGainDB   float64
	IQPhaseDeg float64

	DCOffsetI float64
	DCOffsetQ float64

	QuantBits int
	ClipAmp   float64 // 0 = default full scale

	Mpath []MpathTap

	DropProb    float64
	DropMeanLen float64

	Seed    uint64
	HasSeed bool
}

// phaseNoiseRefHz is the offset frequency at which PhaseNoiseDBc is
// specified.
const phaseNoiseRefHz = 1e4

// DefaultClip is the quantizer's full-scale amplitude when the spec does
// not set clip=. Unit-power signals plus strong jammers still mostly fit;
// overdrive clips, as a real front end would.
const DefaultClip = 1.5

// ParseSpec parses an impairment spec string. The empty string parses to
// the zero SpecConfig. It never panics, whatever the input.
func ParseSpec(spec string) (SpecConfig, error) {
	var c SpecConfig
	if _, err := c.grammar().Parse(spec); err != nil {
		return SpecConfig{}, err
	}
	return c, nil
}

// String renders the config in canonical spec form: fixed key order,
// identity stages omitted. Parse(String()) reproduces the config exactly
// (the round-trip property the fuzz campaign pins).
func (c SpecConfig) String() string { return c.grammar().Format() }

// grammar binds the impairment grammar's fields to c, in canonical order.
func (c *SpecConfig) grammar() spec.Grammar {
	inf := math.Inf(1)
	finite := func(key string, p *float64, limit float64) spec.Field {
		return spec.Float(key, p, -limit, limit, 0)
	}
	drop := spec.Pair("drop", finite("", &c.DropProb, inf), finite("", &c.DropMeanLen, inf))
	return spec.Grammar{Pkg: "impair", Noun: "impairment", Fields: []spec.Field{
		{Key: "mpath", Set: c.setMpath, Get: c.getMpath},
		finite("cfo", &c.CFOHz, inf),
		finite("phase", &c.PhaseRad, inf),
		spec.Flag(finite("phnoise", &c.PhaseNoiseDBc, inf), &c.HasPhaseNoise),
		finite("ppm", &c.PPM, maxPPM),
		finite("drift", &c.DriftPPMPerS, maxDriftPPM),
		finite("iqgain", &c.IQGainDB, 40),
		finite("iqphase", &c.IQPhaseDeg, 90),
		spec.Pair("dc", finite("", &c.DCOffsetI, inf), finite("", &c.DCOffsetQ, inf)),
		spec.Int("quant", &c.QuantBits, 0, maxQuantBits, 0),
		spec.Float("clip", &c.ClipAmp, spec.Positive, inf, 0),
		// The burst length matters, and is checked and rendered, only
		// when bursts can start.
		{Key: "drop", Set: func(val string) error {
			switch err := drop.Set(val); {
			case err != nil:
				return err
			case c.DropProb < 0 || c.DropProb >= 1:
				return errors.New("probability out of [0, 1)")
			case c.DropProb > 0 && (c.DropMeanLen < 1 || c.DropMeanLen > 1e9):
				return errors.New("mean length out of [1, 1e9]")
			}
			return nil
		}, Get: func() (string, bool) {
			val, _ := drop.Get()
			return val, c.DropProb != 0
		}},
		spec.Seed("seed", &c.Seed, &c.HasSeed),
	}}
}

// setMpath parses "d:gdB:pdeg" echoes joined by '+'.
func (c *SpecConfig) setMpath(val string) error {
	if val == "" {
		return nil
	}
	parts := strings.Split(val, "+")
	if len(parts) > maxEchoes {
		return fmt.Errorf("%d echoes, max %d", len(parts), maxEchoes)
	}
	taps := make([]MpathTap, len(parts))
	for i, p := range parts {
		fields := strings.Split(p, ":")
		if len(fields) != 3 {
			return fmt.Errorf("echo %q is not delay:gaindB:phasedeg", p)
		}
		fields[0] = strings.TrimSpace(fields[0])
		inf := math.Inf(1)
		for j, f := range []spec.Field{
			spec.Int("", &taps[i].Delay, 0, maxEchoDelay, 0),
			spec.Float("", &taps[i].GainDB, -inf, 40, 0),
			spec.Float("", &taps[i].PhaseDeg, -inf, inf, 0),
		} {
			if err := f.Set(fields[j]); err != nil {
				return fmt.Errorf("echo %q: %v", p, err)
			}
		}
	}
	c.Mpath = taps
	return nil
}

func (c *SpecConfig) getMpath() (string, bool) {
	var b strings.Builder
	// '+' joins echoes, so exponents render unsigned: 2e06, not 2e+06.
	g := func(f float64) string { return strings.Replace(strconv.FormatFloat(f, 'g', -1, 64), "e+", "e", 1) }
	for i, tap := range c.Mpath {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%d:%s:%s", tap.Delay, g(tap.GainDB), g(tap.PhaseDeg))
	}
	return b.String(), len(c.Mpath) > 0
}

// Chain builds the seeded stage chain for a front end running at
// sampleRateMHz (the repo's convention: 20 = 20 MS/s). The spec's seed=
// key, when present, overrides the seed argument. Stage order is fixed:
// multipath → CFO → phase noise → sample clock → IQ imbalance → DC offset
// → quantizer → dropouts (medium first, then the analog front end, the
// ADC, and transport loss).
func (c SpecConfig) Chain(sampleRateMHz float64, seed uint64) (*Chain, error) {
	if sampleRateMHz <= 0 || math.IsNaN(sampleRateMHz) || math.IsInf(sampleRateMHz, 0) {
		return nil, fmt.Errorf("impair: sample rate %v MHz must be positive and finite", sampleRateMHz)
	}
	fsHz := sampleRateMHz * 1e6
	if c.HasSeed {
		seed = c.Seed
	}
	// Per-stage sub-seeds drawn in fixed order so adding one stage never
	// changes another stage's noise.
	seeds := prng.New(seed)
	phnoiseSeed := seeds.Uint64()
	dropSeed := seeds.Uint64()

	var stages []Stage
	if len(c.Mpath) > 0 {
		maxDelay := 0
		for _, tap := range c.Mpath {
			if tap.Delay > maxDelay {
				maxDelay = tap.Delay
			}
		}
		taps := make([]complex128, maxDelay+1)
		explicitDirect := false
		for _, tap := range c.Mpath {
			if tap.Delay == 0 {
				explicitDirect = true
			}
			amp := math.Pow(10, tap.GainDB/20)
			ph := tap.PhaseDeg * math.Pi / 180
			taps[tap.Delay] += complex(amp*math.Cos(ph), amp*math.Sin(ph))
		}
		if !explicitDirect {
			taps[0] += 1
		}
		stages = append(stages, newMultipath(taps))
	}
	if c.CFOHz != 0 || c.PhaseRad != 0 {
		stages = append(stages, newCFO(c.CFOHz/fsHz, c.PhaseRad))
	}
	if c.HasPhaseNoise {
		// Wiener phase noise with per-sample variance sigma²: the phase
		// PSD is S_phi(f) = sigma²·fs/(2πf)², and L(f) ≈ S_phi(f) for
		// small phase deviations, so pinning L at the reference offset
		// gives sigma² = 10^(L/10)·(2π·f_ref)²/fs.
		lin := math.Pow(10, c.PhaseNoiseDBc/10)
		sigma := math.Sqrt(lin * (2 * math.Pi * phaseNoiseRefHz) * (2 * math.Pi * phaseNoiseRefHz) / fsHz)
		stages = append(stages, newPhaseNoise(sigma, phnoiseSeed))
	}
	if c.PPM != 0 || c.DriftPPMPerS != 0 {
		stages = append(stages, newClock(c.PPM, c.DriftPPMPerS, fsHz))
	}
	if c.IQGainDB != 0 || c.IQPhaseDeg != 0 {
		stages = append(stages, newIQImbalance(c.IQGainDB, c.IQPhaseDeg*math.Pi/180))
	}
	if c.DCOffsetI != 0 || c.DCOffsetQ != 0 {
		stages = append(stages, newDCOffset(c.DCOffsetI, c.DCOffsetQ))
	}
	if c.QuantBits != 0 {
		clip := c.ClipAmp
		if clip == 0 {
			clip = DefaultClip
		}
		stages = append(stages, newQuantizer(c.QuantBits, clip))
	}
	if c.DropProb != 0 {
		stages = append(stages, newDropout(c.DropProb, c.DropMeanLen, dropSeed))
	}
	return NewChain(stages...), nil
}

// NewFromSpec parses spec and builds the chain in one step; the common
// entry point for the cmd tools' -impair flags. An empty spec returns an
// empty (transparent, non-nil) chain.
func NewFromSpec(spec string, sampleRateMHz float64, seed uint64) (*Chain, error) {
	cfg, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return cfg.Chain(sampleRateMHz, seed)
}
