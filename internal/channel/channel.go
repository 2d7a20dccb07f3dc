// Package channel models the paper's experimental medium. The authors
// connected transmitter, jammer and receiver over SMA coax, attenuators and
// a T-connector (Figure 12) and argue the result "can be modeled as additive
// white Gaussian noise (AWGN) channels"; this package implements exactly
// that: AWGN. Callers sum ports with dsp.AddTo, rotate by an oscillator
// offset with dsp.Mix, and apply receiver front-end impairments with
// internal/impair.
package channel

import (
	"fmt"
	"math"

	"bhss/internal/obs"
	"bhss/internal/prng"
)

// AWGN is an additive white Gaussian noise source of the given total
// (complex) variance per sample.
type AWGN struct {
	src      *prng.Source
	variance float64
	amp      float64
	met      *obs.ChanMetrics
}

// NewAWGN returns a noise source with the given per-sample variance,
// deterministic in seed.
func NewAWGN(variance float64, seed uint64) *AWGN {
	if variance < 0 {
		panic(fmt.Sprintf("channel: negative noise variance %v", variance))
	}
	return &AWGN{src: prng.New(seed), variance: variance, amp: math.Sqrt(variance)}
}

// SetObserver attaches channel metrics (nil detaches). Recording never
// touches the sample stream or the noise source's PRNG state.
func (a *AWGN) SetObserver(m *obs.ChanMetrics) { a.met = m }

// Add adds noise to x in place.
func (a *AWGN) Add(x []complex128) {
	var sw obs.Stopwatch
	if a.met != nil {
		sw = obs.Start()
	}
	if a.variance != 0 {
		g := complex(a.amp, 0)
		var noise [64]complex128
		for rest := x; len(rest) > 0; {
			w := noise[:min(len(rest), len(noise))]
			a.src.ComplexNormInto(w)
			for i, z := range w {
				rest[i] += z * g
			}
			rest = rest[len(w):]
		}
	}
	if a.met != nil {
		a.met.NoiseSamples.Add(int64(len(x)))
		a.met.MixNS.ObserveSince(sw)
	}
}
