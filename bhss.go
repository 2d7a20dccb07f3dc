// Package bhss is a Go implementation of bandwidth hopping spread spectrum
// (BHSS), the jamming mitigation technique of Liechti, Lenders and
// Giustiniano, "Jamming Mitigation by Randomized Bandwidth Hopping"
// (ACM CoNEXT 2015).
//
// A BHSS transmitter spreads data with a 16-ary DSSS code (as in IEEE
// 802.15.4) and re-draws the chip pulse duration — and with it the occupied
// bandwidth — from a secret, seed-synchronized hopping pattern while a
// packet is on the air. The receiver regenerates the hop plan from the
// shared seed, estimates the jammer's spectral occupancy per hop, and
// suppresses it before despreading with a low-pass filter (jammer wider
// than the signal) or a whitening excision filter (jammer narrower). The
// combination pushes jamming resistance beyond the spreading code's
// processing gain without widening the RF footprint.
//
// The package exposes the full system: link configuration, transmitter and
// receiver, the Table-1 hopping patterns plus a maximin pattern optimizer,
// jammer models (including the reactive jammer BHSS is designed to defeat),
// and an in-process simulated channel for experiments. Everything runs on
// the standard library.
//
// Quick start:
//
//	cfg := bhss.DefaultConfig(0x5eed)
//	tx, _ := bhss.NewTransmitter(cfg)
//	rx, _ := bhss.NewReceiver(cfg)
//	burst, _ := tx.EncodeFrame([]byte("hello"))
//	payload, stats, err := rx.DecodeBurst(burst.Samples)
//
// See the examples directory for jammed-channel scenarios and cmd/bhssbench
// for the paper's full evaluation.
package bhss

import (
	"fmt"

	"bhss/internal/core"
	"bhss/internal/hop"
	"bhss/internal/jammer"
	"bhss/internal/obs"
	"bhss/internal/spectral"
	"bhss/internal/stats"
	"bhss/internal/theory"
)

// Core link types, re-exported from the implementation packages.
type (
	// Config parameterizes a link; transmitter and receiver must share it.
	Config = core.Config
	// Transmitter encodes payloads into bandwidth-hopping sample bursts.
	Transmitter = core.Transmitter
	// Receiver decodes bursts, filtering jammers before despreading.
	Receiver = core.Receiver
	// Burst is one transmitted frame with its hop segmentation.
	Burst = core.Burst
	// HopSegment describes one hop of a burst.
	HopSegment = core.HopSegment
	// RxStats carries per-burst receiver diagnostics.
	RxStats = core.RxStats
	// FilterDecision is the control logic's per-hop filter choice.
	FilterDecision = core.FilterDecision
	// SyncMode selects ideal or preamble-based burst synchronization.
	SyncMode = core.SyncMode
	// Pattern names a hopping strategy (Table 1 of the paper).
	Pattern = hop.Pattern
	// Distribution is a probability distribution over a bandwidth set.
	Distribution = hop.Distribution
	// Jammer produces interference with a fixed power budget.
	Jammer = jammer.Source
	// Observer is the opt-in zero-allocation metrics pipeline: pass it to
	// Transmitter.SetObserver / Receiver.SetObserver / SimLink.WithObserver,
	// read it with Snapshot. Recording never changes link behavior or
	// output; a nil observer (the default) skips all recording.
	Observer = obs.Pipeline
	// ObserverSnapshot is one point-in-time reading of an Observer.
	ObserverSnapshot = obs.Snapshot
)

// NewObserver returns an empty metrics pipeline ready to attach to any
// number of transmitters, receivers and links (recording is atomic, so one
// observer may be shared across goroutines).
func NewObserver() *Observer { return obs.NewPipeline() }

// Hopping patterns.
const (
	// FixedPattern disables hopping (conventional DSSS).
	FixedPattern = hop.Fixed
	// LinearPattern hops uniformly over the bandwidth set.
	LinearPattern = hop.Linear
	// ExponentialPattern equalizes airtime per bandwidth.
	ExponentialPattern = hop.Exponential
	// ParabolicPattern is the paper's maximin-robust distribution.
	ParabolicPattern = hop.Parabolic
)

// Synchronization modes.
const (
	// IdealSync assumes exact burst timing (simulation harnesses).
	IdealSync = core.IdealSync
	// PreambleSync acquires timing/phase/frequency from the preamble.
	PreambleSync = core.PreambleSync
)

// Filter decisions reported in RxStats.
const (
	// FilterNone leaves the hop to the despreader alone.
	FilterNone = core.FilterNone
	// FilterLowPass suppresses a jammer wider than the signal.
	FilterLowPass = core.FilterLowPass
	// FilterExcision notches a jammer narrower than the signal.
	FilterExcision = core.FilterExcision
)

// DefaultConfig returns the paper's prototype configuration: 20 MS/s, the
// seven-bandwidth hop set (10 down to 0.15625 MHz), linear hopping, four
// symbols per hop, half-sine chip pulses, filtering enabled.
func DefaultConfig(seed uint64) Config { return core.DefaultConfig(seed) }

// NewTransmitter returns a transmitter for the configuration.
func NewTransmitter(cfg Config) (*Transmitter, error) { return core.NewTransmitter(cfg) }

// NewReceiver returns a receiver for the configuration.
func NewReceiver(cfg Config) (*Receiver, error) { return core.NewReceiver(cfg) }

// DefaultBandwidths returns the paper's hop set in MHz.
func DefaultBandwidths() []float64 { return hop.DefaultBandwidths() }

// NewDistribution builds a hopping distribution from a named pattern.
func NewDistribution(p Pattern, bandwidths []float64) (Distribution, error) {
	return hop.NewDistribution(p, bandwidths)
}

// OptimizeMaximinDistribution derives a hop distribution maximizing the
// minimum expected SNR-improvement bound over all jammer bandwidths in the
// set (how the paper derived its parabolic pattern). jammerPower is the
// assumed jammer power relative to the unit signal (e.g. 100 for −20 dB
// SJR); iters Monte Carlo refinements are run with the given seed.
func OptimizeMaximinDistribution(bandwidths []float64, jammerPower float64, iters int, seed uint64) (Distribution, error) {
	payoff := func(bp, bj float64) float64 {
		return stats.DB(theory.GammaBound(jammerPower, 0.01, bp, bj))
	}
	return hop.OptimizeMaximin(bandwidths, payoff, iters, seed)
}

// NewBandlimitedJammer returns the paper's canonical attacker: white
// Gaussian noise band-limited to bandwidthMHz at the given sample rate,
// with total power relative to a unit-power signal.
func NewBandlimitedJammer(bandwidthMHz, sampleRateMHz, power float64, seed uint64) (Jammer, error) {
	return jammer.NewBandlimited(bandwidthMHz/sampleRateMHz, power, seed)
}

// NewHoppingJammer returns an attacker that hops its own bandwidth over the
// distribution every samplesPerHop samples.
func NewHoppingJammer(dist Distribution, sampleRateMHz float64, samplesPerHop int, power float64, seed uint64) (Jammer, error) {
	return jammer.NewHopping(dist, sampleRateMHz, samplesPerHop, power, seed)
}

// ReactiveJammer is the strong adversary of the paper's §2: it senses the
// occupied bandwidth and answers with matched noise after a reaction delay.
type ReactiveJammer = jammer.Reactive

// NewReactiveJammer returns a reactive jammer with the given reaction delay
// (samples), sensing window (power-of-two samples) and power budget.
func NewReactiveJammer(reactionDelay, senseWindow int, power float64, seed uint64) (*ReactiveJammer, error) {
	return jammer.NewReactive(reactionDelay, senseWindow, power, seed)
}

// SNRImprovementBound evaluates the paper's ideal-filter upper bound on the
// SNR improvement factor γ (eqs. (9)–(12)) for a signal of bandwidth bp
// against a jammer of bandwidth bj (any common unit), with jammer power
// rho0 and per-chip noise variance noiseVar.
func SNRImprovementBound(rho0, noiseVar, bp, bj float64) float64 {
	return theory.GammaBound(rho0, noiseVar, bp, bj)
}

// BestResponseBandwidth returns the bandwidth from the set that maximizes
// the SNR-improvement bound against a jammer of known fixed bandwidth and
// power — the §5.3 adaptive move: once a jammer is observed to sit still,
// stop hopping and park at the bandwidth it covers worst. (The counter-move
// forces rational jammers to hop, which is Table 2's setting.)
func BestResponseBandwidth(bandwidths []float64, jammerBWMHz, jammerPower float64) (float64, error) {
	payoff := func(bp, bj float64) float64 {
		return stats.DB(theory.GammaBound(jammerPower, 0.01, bp, bj))
	}
	idx, err := hop.BestResponse(bandwidths, jammerBWMHz, payoff)
	if err != nil {
		return 0, err
	}
	return bandwidths[idx], nil
}

// EstimateOccupiedBandwidthMHz measures the two-sided bandwidth containing
// 95% of the power in a capture (Welch PSD, 1024-bin segments), in MHz at
// the given sample rate. It is the sensing primitive behind the adaptive
// best-response move: capture the medium while the link is silent and the
// estimate is the jammer's occupancy.
func EstimateOccupiedBandwidthMHz(samples []complex128, sampleRateMHz float64) (float64, error) {
	seg := 1024
	for seg > len(samples) {
		seg >>= 1
	}
	if seg < 16 {
		return 0, fmt.Errorf("bhss: capture too short (%d samples)", len(samples))
	}
	psd, err := spectral.Welch(seg).PSD(samples)
	if err != nil {
		return 0, err
	}
	return spectral.OccupiedBandwidth(psd, 0.95) * sampleRateMHz, nil
}
