// Package channel models the paper's experimental medium. The authors
// connected transmitter, jammer and receiver over SMA coax, attenuators and
// a T-connector (Figure 12) and argue the result "can be modeled as additive
// white Gaussian noise (AWGN) channels"; this package implements exactly
// that: per-port attenuation, signal summation, AWGN, and — because the
// SDRs ran on free, unsynchronized oscillators — optional carrier frequency,
// phase and sampling-time offsets.
package channel

import (
	"fmt"
	"math"

	"bhss/internal/dsp"
	"bhss/internal/impair"
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

// Variance returns the configured per-sample noise variance.
func (a *AWGN) Variance() float64 { return a.variance }

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

// Attenuate scales x in place by the given attenuation in dB (positive
// values reduce power), modeling the inline attenuators of the testbed.
func Attenuate(x []complex128, dB float64) {
	dsp.Scale(x, math.Pow(10, -dB/20))
}

// Gain scales x in place by the given gain in dB (positive values increase
// power), modeling the SDR transmit gain setting.
func Gain(x []complex128, dB float64) {
	dsp.Scale(x, math.Pow(10, dB/20))
}

// Impairments models the front-end offsets between two free-running SDRs.
type Impairments struct {
	// CFO is the carrier frequency offset in cycles per sample.
	CFO float64
	// Phase is the initial carrier phase offset in radians.
	Phase float64
	// Delay is a possibly fractional sample delay (>= 0).
	Delay float64
	// ClockSkewPPM is the sample-clock rate mismatch in parts per million
	// (positive: the receiver's clock runs fast, so the signal appears
	// stretched). The testbed's TCXOs are a few ppm, which accumulates to
	// well under one sample over a burst — the receiver's ideal chip
	// timing model depends on exactly this property (see the package
	// test TestRealisticSkewIsSubChipPerBurst).
	ClockSkewPPM float64
}

// Apply returns a new slice with the impairments applied to x
// (resampling and delay first, then the frequency/phase rotation).
func (im Impairments) Apply(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	if im.ClockSkewPPM != 0 {
		out = resample(out, 1+im.ClockSkewPPM*1e-6)
	}
	if im.Delay != 0 {
		out = dsp.FractionalDelay(out, im.Delay)
	}
	if im.CFO != 0 || im.Phase != 0 {
		dsp.Mix(out, im.CFO, im.Phase)
	}
	return out
}

// resample stretches x by the given rate factor using linear interpolation,
// keeping the output length equal to the input (the tail repeats the last
// sample if the stretched signal runs out early).
func resample(x []complex128, rate float64) []complex128 {
	out := make([]complex128, len(x))
	if len(x) == 0 {
		return out
	}
	for i := range out {
		t := float64(i) / rate
		j := int(t)
		if j >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := t - float64(j)
		out[i] = x[j]*complex(1-frac, 0) + x[j+1]*complex(frac, 0)
	}
	return out
}

// Combine sums any number of sample streams (the T-connector). The output
// length is the longest input; shorter inputs are treated as silent after
// they end.
func Combine(streams ...[]complex128) []complex128 {
	var n int
	for _, s := range streams {
		if len(s) > n {
			n = len(s)
		}
	}
	out := make([]complex128, n)
	for _, s := range streams {
		for i, v := range s {
			out[i] += v
		}
	}
	return out
}

// Link bundles the full path from one transmitter port to the receiver:
// attenuation, impairments, then (at the receiver) noise is added once for
// the combined signal — use Combine plus AWGN.Add for multi-port setups.
type Link struct {
	AttenuationDB float64
	Impairments   Impairments
	// Front, when non-nil, is the receiver front-end impairment chain
	// (internal/impair) applied after attenuation. For multi-port setups
	// apply one chain to the combined signal with ApplyFront instead, so
	// the front end distorts jammer and signal alike, as hardware does.
	Front *impair.Chain
}

// Transmit pushes a burst through the link and returns the received
// samples (no noise; add it after combining).
func (l Link) Transmit(x []complex128) []complex128 {
	out := l.Impairments.Apply(x)
	Attenuate(out, l.AttenuationDB)
	return ApplyFront(l.Front, out)
}

// ApplyFront passes x through the receiver front-end chain and returns the
// impaired samples (a new slice; the chain may change the length when a
// clock-skew stage resamples). A nil or empty chain returns x unchanged.
func ApplyFront(front *impair.Chain, x []complex128) []complex128 {
	if front.Len() == 0 {
		return x
	}
	return front.ProcessAppend(make([]complex128, 0, len(x)+len(x)/128+8), x)
}

// NoiseVarForSNR returns the AWGN variance that realizes the given SNR (dB)
// for a signal of the given average power.
//
//bhss:planphase scenario configuration; runs before any sample flows
func NoiseVarForSNR(signalPower, snrDB float64) float64 {
	if signalPower < 0 {
		panic("channel: negative signal power")
	}
	return signalPower / math.Pow(10, snrDB/10)
}
