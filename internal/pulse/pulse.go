// Package pulse implements chip pulse shaping. Bandwidth hopping (eq. (1)
// of the paper) works by stretching the pulse shape in time: transmitting
// the same chips with a pulse of α-times the duration shrinks the occupied
// bandwidth by α. At a fixed sampling rate Rs this means varying the number
// of samples per chip: B_p = Rs / samplesPerChip.
//
// The paper's prototype modulates chips with a half-sine pulse (as IEEE
// 802.15.4 does); half-sine and rectangular pulses are confined to a single
// chip period, so hopping the bandwidth between symbols introduces no
// inter-chip interference at the boundary. A root-raised-cosine pulse is
// provided as an alternative for spectrum-shaping experiments.
package pulse

import (
	"fmt"
	"math"

	"bhss/internal/dsp/simd"
)

// Shape identifies a chip pulse shape.
type Shape int

const (
	// HalfSine is g(t) = sin(πt/Tc) over one chip period, the paper's
	// (and IEEE 802.15.4's) choice.
	HalfSine Shape = iota
	// Rect is a rectangular (NRZ) chip pulse.
	Rect
	// RRC is a root-raised-cosine pulse truncated to RRCSpan chips with
	// roll-off RRCBeta. Unlike the others it spans several chips.
	RRC
)

// RRCSpan is the truncation length of the RRC pulse in chip periods.
const RRCSpan = 8

// RRCBeta is the RRC roll-off factor.
const RRCBeta = 0.35

// String returns the shape name.
func (s Shape) String() string {
	switch s {
	case HalfSine:
		return "half-sine"
	case Rect:
		return "rect"
	case RRC:
		return "rrc"
	default:
		return "unknown"
	}
}

// Taps returns the pulse shape sampled at sps samples per chip, normalized
// so that the average transmit power of unit-power chips is one
// (sum of squares == sps). For HalfSine and Rect the slice has sps samples;
// for RRC it has RRCSpan*sps+1.
//
//bhss:planphase pulse design runs at construction time (results are cached per sps)
func Taps(s Shape, sps int) []float64 {
	if sps < 1 {
		panic(fmt.Sprintf("pulse: sps %d must be >= 1", sps))
	}
	var g []float64
	switch s {
	case HalfSine:
		g = make([]float64, sps)
		for i := range g {
			g[i] = math.Sin(math.Pi * (float64(i) + 0.5) / float64(sps))
		}
	case Rect:
		g = make([]float64, sps)
		for i := range g {
			g[i] = 1
		}
	case RRC:
		g = rrcTaps(sps, RRCSpan, RRCBeta)
	default:
		panic("pulse: unknown shape")
	}
	normalizeEnergy(g, float64(sps))
	return g
}

// normalizeEnergy scales g so that sum(g^2) == target.
func normalizeEnergy(g []float64, target float64) {
	var e float64
	for _, v := range g {
		e += v * v
	}
	if e == 0 {
		return
	}
	scale := math.Sqrt(target / e)
	for i := range g {
		g[i] *= scale
	}
}

// rrcTaps returns a root-raised-cosine pulse with the given roll-off,
// truncated to span chip periods (span*sps+1 samples, symmetric).
func rrcTaps(sps, span int, beta float64) []float64 {
	n := span*sps + 1
	g := make([]float64, n)
	mid := float64(n-1) / 2
	for i := range g {
		t := (float64(i) - mid) / float64(sps) // time in chip periods
		g[i] = rrcValue(t, beta)
	}
	return g
}

// rrcValue evaluates the RRC impulse response at time t (in chip periods),
// handling the t=0 and t=±1/(4β) singularities analytically.
func rrcValue(t, beta float64) float64 {
	switch {
	case t == 0:
		return 1 + beta*(4/math.Pi-1)
	case beta > 0 && math.Abs(math.Abs(t)-1/(4*beta)) < 1e-9:
		a := math.Pi / (4 * beta)
		return beta / math.Sqrt2 * ((1+2/math.Pi)*math.Sin(a) + (1-2/math.Pi)*math.Cos(a))
	default:
		num := math.Sin(math.Pi*t*(1-beta)) + 4*beta*t*math.Cos(math.Pi*t*(1+beta))
		den := math.Pi * t * (1 - (4*beta*t)*(4*beta*t))
		if den == 0 {
			return 0
		}
		return num / den
	}
}

// Modulate maps complex chips to samples at sps samples per chip using the
// single-chip pulse g (len(g) == sps, from Taps with HalfSine or Rect).
// The output has len(chips)*sps samples.
func Modulate(chips []complex128, g []float64) []complex128 {
	return ModulateAppend(make([]complex128, 0, len(chips)*len(g)), chips, g)
}

// ModulateAppend is Modulate appending into dst, for transmitters that
// assemble a multi-hop burst into one pre-sized buffer.
//
//bhss:hotpath
func ModulateAppend(dst []complex128, chips []complex128, g []float64) []complex128 {
	sps := len(g)
	//bhss:allow(hotpath) amortized growth: growSamples reuses dst's storage once warm
	dst = growSamples(dst, len(chips)*sps)
	out := dst[len(dst)-len(chips)*sps:]
	simd.Modulate(out, chips, g)
	return dst
}

// Demodulate recovers chip estimates from samples by matched filtering with
// the single-chip pulse g and sampling once per chip, starting at the given
// sample offset. It is the inverse of Modulate: Demodulate(Modulate(c, g),
// g, 0) == c (up to floating point). Partial chips at the tail are dropped.
func Demodulate(samples []complex128, g []float64, offset int) []complex128 {
	return DemodulateAppend(nil, samples, g, offset)
}

// DemodulateAppend is Demodulate appending into dst, for receivers that
// accumulate the chips of consecutive hops into one reused buffer.
//
//bhss:hotpath
func DemodulateAppend(dst []complex128, samples []complex128, g []float64, offset int) []complex128 {
	sps := len(g)
	if sps == 0 {
		//bhss:allow(panicpolicy) zero-alloc Append contract: an empty pulse is a caller bug, caught in construction
		panic("pulse: empty pulse")
	}
	if offset < 0 {
		offset = 0
	}
	n := (len(samples) - offset) / sps
	if n <= 0 {
		return dst
	}
	var energy float64
	for _, v := range g {
		energy += v * v
	}
	//bhss:allow(hotpath) amortized growth: growSamples reuses dst's storage once warm
	dst = growSamples(dst, n)
	out := dst[len(dst)-n:]
	simd.Demodulate(out, samples[offset:], g, energy)
	return dst
}

// growSamples extends s by n elements, doubling the capacity on
// reallocation so repeated appends stay amortized-constant. The new
// elements are overwritten by the caller.
func growSamples(s []complex128, n int) []complex128 {
	if cap(s)-len(s) >= n {
		return s[:len(s)+n]
	}
	out := make([]complex128, len(s)+n, 2*(len(s)+n))
	copy(out, s)
	return out
}

// OccupiedBandwidth returns the approximate two-sided occupied bandwidth of
// a pulse-shaped chip stream in normalized frequency: the chip rate 1/sps
// (main lobe width of the chip spectrum).
//
//bhss:planphase bandwidth bookkeeping on plan-time config
func OccupiedBandwidth(sps int) float64 {
	if sps < 1 {
		panic("pulse: sps must be >= 1")
	}
	return 1 / float64(sps)
}
