// Package core implements the paper's contribution: the bandwidth hopping
// spread spectrum (BHSS) transmitter and receiver of Figures 4 and 6.
//
// The transmitter spreads 4-bit symbols to 32 chips (16-ary DSSS with a
// seed-derived scrambling overlay), modulates them with a half-sine chip
// pulse whose duration is re-drawn from a randomized hop distribution every
// few symbols — hopping the occupied bandwidth during the transmission of a
// single frame (eq. (1)) — and emits the samples at a fixed sampling rate.
//
// The receiver derives the identical hop plan from the pre-shared seed
// (§4.1: spectrum inspection would be jammer-dominated, so synchronization
// rides on the shared random source), estimates the jammer's spectral
// occupancy per hop with Welch's method, and lets a control logic pick the
// interference suppression filter *before despreading*: a low-pass filter
// when the jammer is wider than the signal (eq. (4)), the PSD-reciprocal
// whitening excision filter when it is narrower (eq. (3)), or none when the
// bandwidths are too close for filtering to pay (eq. (10)). The filtered
// samples then pass through the matched filter, the chip demodulator, and
// the 16-ary correlation despreader, and the frame's CRC decides delivery.
package core

import (
	"fmt"
	"math"

	"bhss/internal/hop"
	"bhss/internal/pulse"
)

// SyncMode selects how the receiver aligns to a burst.
type SyncMode int

const (
	// IdealSync assumes perfect frame timing, phase and frequency (the
	// harness hands the receiver the exact burst window). It isolates the
	// filtering gain from synchronization noise and is the default for
	// the bulk experiments.
	IdealSync SyncMode = iota
	// PreambleSync acquires timing, carrier phase and a coarse frequency
	// offset from the known preamble waveform before decoding, modeling
	// the prototype's preamble/SFD-based synchronization.
	PreambleSync
)

// defaultFilterTaps is the suppression filter tap budget at simulation
// scale, for DefaultConfig and for a Config that leaves FilterTaps zero.
const defaultFilterTaps = 1025

// Config parameterizes a BHSS link. Transmitter and receiver must be
// constructed from identical configurations (the pre-shared secret).
type Config struct {
	// SampleRate is the fixed front-end rate in MHz (paper: 20 MS/s for
	// all bandwidths, §6.1).
	SampleRate float64
	// Bandwidths is the hop set in MHz (paper: 10 down to 0.15625).
	Bandwidths []float64
	// Pattern selects the hop distribution (Table 1). Use hop.Fixed for
	// the conventional fixed-bandwidth DSSS baseline.
	Pattern hop.Pattern
	// Distribution, when non-nil, overrides Pattern with an explicit
	// distribution (e.g. one produced by hop.OptimizeMaximin).
	Distribution *hop.Distribution
	// SymbolsPerHop is the dwell per hop in DSSS symbols.
	SymbolsPerHop int
	// Seed is the pre-shared secret that drives the chip scrambler and
	// the hop schedule.
	Seed uint64
	// EnableFilter turns the jammer estimation + suppression filtering
	// on. Off, the receiver is a plain (hopping or fixed) DSSS receiver.
	EnableFilter bool
	// FilterTaps bounds the suppression filter length (paper: 3181 taps
	// at full scale; default 1025 at simulation scale).
	FilterTaps int
	// Sync selects the synchronization mode.
	Sync SyncMode
	// TrackingLoops enables the prototype's per-hop carrier tracking loop
	// between the suppression filter and the demodulator (§6.1: the
	// correction loops run after the FIR filter, "otherwise the jammer
	// may disturb the error correction"). With the loop enabled, an
	// unfiltered receiver loses carrier lock under strong jamming even
	// when the matched filter alone would reject the jamming power — the
	// mechanism behind the paper's measured low-pass filtering gains.
	TrackingLoops bool
}

// DefaultConfig returns the paper's prototype configuration at simulation
// scale: 20 MS/s, the seven-bandwidth hop set, linear hopping, four symbols
// per hop, half-sine pulses, filtering enabled.
func DefaultConfig(seed uint64) Config {
	return Config{
		SampleRate:    20,
		Bandwidths:    hop.DefaultBandwidths(),
		Pattern:       hop.Linear,
		SymbolsPerHop: hop.DefaultSymbolsPerHop,
		Seed:          seed,
		EnableFilter:  true,
		FilterTaps:    defaultFilterTaps,
	}
}

// normalize fills in defaults and derives the per-bandwidth tables, both
// indexed like the distribution's bandwidths: samples per chip, and the chip
// pulse g(αt) at that rate. It returns the validated distribution.
func (c *Config) normalize() (hop.Distribution, []int, [][]float64, error) {
	if c.SampleRate <= 0 {
		return hop.Distribution{}, nil, nil, fmt.Errorf("core: sample rate %v must be positive", c.SampleRate)
	}
	if len(c.Bandwidths) == 0 {
		return hop.Distribution{}, nil, nil, fmt.Errorf("core: empty bandwidth set")
	}
	if c.SymbolsPerHop < 1 {
		return hop.Distribution{}, nil, nil, fmt.Errorf("core: SymbolsPerHop %d must be >= 1", c.SymbolsPerHop)
	}
	if c.FilterTaps == 0 {
		c.FilterTaps = defaultFilterTaps
	}
	if c.FilterTaps < 3 {
		return hop.Distribution{}, nil, nil, fmt.Errorf("core: FilterTaps %d too small", c.FilterTaps)
	}
	var dist hop.Distribution
	if c.Distribution != nil {
		dist = *c.Distribution
		if err := dist.Validate(); err != nil {
			return hop.Distribution{}, nil, nil, err
		}
	} else {
		var err error
		dist, err = hop.NewDistribution(c.Pattern, c.Bandwidths)
		if err != nil {
			return hop.Distribution{}, nil, nil, err
		}
	}
	sps := make([]int, len(dist.Bandwidths))
	taps := make([][]float64, len(dist.Bandwidths))
	for i, bw := range dist.Bandwidths {
		ratio := c.SampleRate / bw
		rounded := int(math.Round(ratio))
		if rounded < 1 || math.Abs(ratio-float64(rounded)) > 1e-6 {
			return hop.Distribution{}, nil, nil, fmt.Errorf(
				"core: bandwidth %v MHz does not divide the sample rate %v (need integer samples/chip)", bw, c.SampleRate)
		}
		sps[i] = rounded
		taps[i] = pulse.Taps(rounded)
	}
	return dist, sps, taps, nil
}
