// Package pulse implements chip pulse shaping. Bandwidth hopping (eq. (1)
// of the paper) works by stretching the pulse shape in time: transmitting
// the same chips with a pulse of α-times the duration shrinks the occupied
// bandwidth by α. At a fixed sampling rate Rs this means varying the number
// of samples per chip: B_p = Rs / samplesPerChip.
//
// The chip pulse is the half-sine of the paper's prototype (and of IEEE
// 802.15.4). It is confined to a single chip period, so hopping the
// bandwidth between symbols introduces no inter-chip interference at the
// boundary.
package pulse

import (
	"fmt"
	"math"

	"bhss/internal/dsp/simd"
)

// Taps returns the half-sine chip pulse g(t) = sin(πt/Tc) sampled at sps
// samples per chip, normalized so that the average transmit power of
// unit-power chips is one (sum of squares == sps).
//
//bhss:planphase pulse design runs at construction time (results are cached per sps)
func Taps(sps int) []float64 {
	if sps < 1 {
		panic(fmt.Sprintf("pulse: sps %d must be >= 1", sps))
	}
	g := make([]float64, sps)
	var e float64
	for i := range g {
		g[i] = math.Sin(math.Pi * (float64(i) + 0.5) / float64(sps))
		e += g[i] * g[i]
	}
	scale := math.Sqrt(float64(sps) / e)
	for i := range g {
		g[i] *= scale
	}
	return g
}

// ModulateAppend maps complex chips to samples at sps samples per chip
// using the single-chip pulse g (len(g) == sps, from Taps) and appends the
// len(chips)*sps samples to dst, so a transmitter assembles a multi-hop
// burst in one pre-sized buffer.
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

// DemodulateAppend recovers chip estimates from samples by matched
// filtering with the single-chip pulse g and sampling once per chip,
// starting at the given sample offset, and appends them to dst, so a
// receiver accumulates the chips of consecutive hops in one reused buffer.
// It is the inverse of ModulateAppend: DemodulateAppend(nil,
// ModulateAppend(nil, c, g), g, 0) == c (up to floating point). Partial
// chips at the tail are dropped.
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
