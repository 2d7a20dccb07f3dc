package impair

import (
	"fmt"
	"math"

	"bhss/internal/prng"
	"bhss/internal/spec"
)

// Spec grammar, documented in DESIGN.md §11 "Spec grammar". The lexical
// rules every spec grammar shares are stated there once and implemented by
// internal/spec. The keys:
//
//	cfo=<Hz>         carrier frequency offset
//	phnoise=<dBc/Hz> Wiener phase noise: SSB density at 10 kHz offset
//	ppm=<ppm>        static sample-clock offset, |ppm| <= 1000
//	quant=<bits>     ADC quantization, 1..24 bits (0 disables), full
//	                 scale 1.5
//
// All values must be finite; malformed numbers and out-of-range
// parameters are errors. Zero values are identity: a stage
// whose parameter is zero is omitted from the chain, so
// ParseSpec("") and ParseSpec("cfo=0,ppm=0") both build empty,
// bit-transparent chains.

// Limits enforced by ParseSpec so a hostile spec cannot build a degenerate
// resampler or quantizer.
const (
	maxPPM       = 1000
	maxQuantBits = 24
)

// SpecConfig is the parsed form of an impairment spec string. The zero
// value builds an empty (bit-transparent) chain.
type SpecConfig struct {
	CFOHz float64

	// PhaseNoiseDBc is the oscillator's single-sideband phase-noise
	// density L(f) in dBc/Hz at a 10 kHz offset, mapped onto the Wiener
	// model's per-sample increment via
	// sigma² = 10^(L/10)·(2π·10kHz)²/fs. HasPhaseNoise gates the stage
	// (0 dBc/Hz is a legal, extremely noisy oscillator, not "off").
	PhaseNoiseDBc float64
	HasPhaseNoise bool

	PPM float64

	QuantBits int
}

// phaseNoiseRefHz is the offset frequency at which PhaseNoiseDBc is
// specified.
const phaseNoiseRefHz = 1e4

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
	return spec.Grammar{Pkg: "impair", Noun: "impairment", Fields: []spec.Field{
		spec.Float("cfo", &c.CFOHz, -inf, inf, 0),
		spec.Flag(spec.Float("phnoise", &c.PhaseNoiseDBc, -inf, inf, 0), &c.HasPhaseNoise),
		spec.Float("ppm", &c.PPM, -maxPPM, maxPPM, 0),
		spec.Int("quant", &c.QuantBits, 0, maxQuantBits, 0),
	}}
}

// Chain builds the seeded stage chain for a front end running at
// sampleRateMHz (the repo's convention: 20 = 20 MS/s). Stage order is
// fixed: CFO → phase noise → sample clock → quantizer (the analog front
// end, then the ADC).
func (c SpecConfig) Chain(sampleRateMHz float64, seed uint64) (*Chain, error) {
	if sampleRateMHz <= 0 || math.IsNaN(sampleRateMHz) || math.IsInf(sampleRateMHz, 0) {
		return nil, fmt.Errorf("impair: sample rate %v MHz must be positive and finite", sampleRateMHz)
	}
	fsHz := sampleRateMHz * 1e6

	var stages []Stage
	if c.CFOHz != 0 {
		stages = append(stages, newCFO(c.CFOHz/fsHz))
	}
	if c.HasPhaseNoise {
		// Wiener phase noise with per-sample variance sigma²: the phase
		// PSD is S_phi(f) = sigma²·fs/(2πf)², and L(f) ≈ S_phi(f) for
		// small phase deviations, so pinning L at the reference offset
		// gives sigma² = 10^(L/10)·(2π·f_ref)²/fs.
		lin := math.Pow(10, c.PhaseNoiseDBc/10)
		sigma := math.Sqrt(lin * (2 * math.Pi * phaseNoiseRefHz) * (2 * math.Pi * phaseNoiseRefHz) / fsHz)
		// The stage's seed is the first draw from the chain seed.
		stages = append(stages, newPhaseNoise(sigma, prng.New(seed).Uint64()))
	}
	if c.PPM != 0 {
		stages = append(stages, newClock(c.PPM))
	}
	if c.QuantBits != 0 {
		stages = append(stages, newQuantizer(c.QuantBits))
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
