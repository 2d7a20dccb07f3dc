// Package impair is a composable, seeded, deterministic chain of
// sample-domain RF impairments: the difference between the paper's real
// USRP N210 front ends and this repository's ideal AWGN medium. The
// prototype's receiver loops (internal/tracking) were constantly fighting
// carrier frequency offset, sample-clock drift, oscillator phase noise, IQ
// imbalance, DC offset and ADC quantization; the virtual testbed models
// none of them, so those loops are never truly exercised end-to-end. This
// package closes that gap.
//
// Each impairment is a streaming Stage: it consumes one block of complex
// baseband samples, appends the impaired samples to a caller-provided
// buffer, and carries its state (oscillator phase, resampler position,
// delay-line history, dropout run length) across blocks, so a long capture
// processed in arbitrary block sizes is bit-identical to the same capture
// processed at once. All randomness (phase noise, dropouts) comes from
// internal/prng seeded at construction: the same seed always produces the
// same impaired waveform, which is what makes golden-vector and property
// testing of the receiver possible at all.
//
// Stages are assembled into a Chain, usually via the spec-string parser in
// spec.go (e.g. "cfo=2e3,ppm=20,phnoise=-80,quant=8" — see ParseSpec for
// the grammar). A nil or empty chain is bit-transparent. Steady-state
// processing performs zero heap allocations (//bhss:hotpath, enforced by
// the hotpath analyzer and the AllocsPerRun tests).
package impair

import (
	"math"

	"bhss/internal/prng"
)

// Stage is one streaming sample-domain impairment.
type Stage interface {
	// Kind identifies the stage for spec strings and obs counters.
	Kind() Kind
	// ProcessAppend consumes src, appends the impaired samples to dst and
	// returns the extended slice. Output length may differ from the input
	// length (resampling, never by more than a few samples per block).
	// State persists across calls; processing a stream in blocks of any
	// size yields the same samples as processing it at once.
	ProcessAppend(dst, src []complex128) []complex128
	// Reset restores the freshly-constructed (seeded) state.
	Reset()
}

// Kind enumerates the impairment stages in their fixed chain order: the
// physical path runs multipath (the medium), then the receiver front end —
// LO offset, LO phase noise, ADC clock, analog IQ path, DC, quantization —
// and finally transport dropouts.
type Kind int

const (
	KindMultipath Kind = iota
	KindCFO
	KindPhaseNoise
	KindClock
	KindIQImbalance
	KindDCOffset
	KindQuantizer
	KindDropout
	numKinds
)

// NumKinds is the number of defined impairment kinds.
const NumKinds = int(numKinds)

var kindNames = [numKinds]string{
	"mpath", "cfo", "phnoise", "clock", "iq", "dc", "quant", "drop",
}

// String returns the stage's spec key ("cfo", "quant", ...).
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// cfoStage rotates the stream by a fixed carrier frequency/phase offset,
// the LO mismatch between free-running oscillators. Same recurrence as
// dsp.Mix (periodically renormalized complex oscillator) but with the
// oscillator state persisted across blocks.
type cfoStage struct {
	step   complex128 // e^{j2πf}
	init   complex128 // e^{jφ0}
	osc    complex128 // current oscillator value
	renorm int
}

func newCFO(cyclesPerSample, phase float64) *cfoStage {
	s := &cfoStage{
		step: complex(math.Cos(2*math.Pi*cyclesPerSample), math.Sin(2*math.Pi*cyclesPerSample)),
		init: complex(math.Cos(phase), math.Sin(phase)),
	}
	s.Reset()
	return s
}

func (s *cfoStage) Kind() Kind { return KindCFO }

func (s *cfoStage) Reset() { s.osc = s.init; s.renorm = 0 }

//bhss:hotpath
func (s *cfoStage) ProcessAppend(dst, src []complex128) []complex128 {
	osc, step := s.osc, s.step
	n := s.renorm
	for _, v := range src {
		dst = append(dst, v*osc)
		osc *= step
		n++
		if n&1023 == 0 {
			mag := math.Hypot(real(osc), imag(osc))
			osc = complex(real(osc)/mag, imag(osc)/mag)
		}
	}
	s.osc, s.renorm = osc, n
	return dst
}

// phaseNoiseStage applies Wiener (random-walk) phase noise: the discrete
// model of a free-running oscillator's 1/f² phase-noise skirt. The
// per-sample increment is a zero-mean Gaussian of standard deviation sigma
// radians; see SpecConfig.PhaseNoiseDBc for the dBc/Hz mapping.
type phaseNoiseStage struct {
	sigma float64
	seed  uint64
	src   *prng.Source
	phase float64
}

func newPhaseNoise(sigma float64, seed uint64) *phaseNoiseStage {
	return &phaseNoiseStage{sigma: sigma, seed: seed, src: prng.New(seed)}
}

func (s *phaseNoiseStage) Kind() Kind { return KindPhaseNoise }

func (s *phaseNoiseStage) Reset() { s.src.Reseed(s.seed); s.phase = 0 }

//bhss:hotpath
func (s *phaseNoiseStage) ProcessAppend(dst, src []complex128) []complex128 {
	phase := s.phase
	for _, v := range src {
		phase += s.sigma * s.src.NormFloat64()
		if phase > math.Pi {
			phase -= 2 * math.Pi
		} else if phase < -math.Pi {
			phase += 2 * math.Pi
		}
		rot := complex(math.Cos(phase), math.Sin(phase))
		dst = append(dst, v*rot)
	}
	s.phase = phase
	return dst
}

// iqImbalanceStage models the receiver's analog IQ demodulator: a gain
// mismatch between the I and Q rails plus a quadrature phase error.
// I' = gI·I, Q' = gQ·(Q·cosφ + I·sinφ) with gI/gQ split symmetrically
// around unity.
type iqImbalanceStage struct {
	gi, gq, cosP, sinP float64
}

func newIQImbalance(gainDB, phaseRad float64) *iqImbalanceStage {
	return &iqImbalanceStage{
		gi:   math.Pow(10, gainDB/40),
		gq:   math.Pow(10, -gainDB/40),
		cosP: math.Cos(phaseRad),
		sinP: math.Sin(phaseRad),
	}
}

func (s *iqImbalanceStage) Kind() Kind { return KindIQImbalance }

func (s *iqImbalanceStage) Reset() {}

//bhss:hotpath
func (s *iqImbalanceStage) ProcessAppend(dst, src []complex128) []complex128 {
	for _, v := range src {
		i, q := real(v), imag(v)
		dst = append(dst, complex(s.gi*i, s.gq*(q*s.cosP+i*s.sinP)))
	}
	return dst
}

// dcOffsetStage adds a constant complex offset (LO leakage / ADC bias).
type dcOffsetStage struct {
	dc complex128
}

func newDCOffset(re, im float64) *dcOffsetStage {
	return &dcOffsetStage{dc: complex(re, im)}
}

func (s *dcOffsetStage) Kind() Kind { return KindDCOffset }

func (s *dcOffsetStage) Reset() {}

//bhss:hotpath
func (s *dcOffsetStage) ProcessAppend(dst, src []complex128) []complex128 {
	for _, v := range src {
		dst = append(dst, v+s.dc)
	}
	return dst
}

// quantizerStage is a mid-tread uniform ADC model: each rail is rounded to
// the nearest of 2^bits levels spanning [-clip, +clip] and clipped at full
// scale, reproducing both quantization noise and front-end saturation.
type quantizerStage struct {
	delta float64 // one LSB
	clip  float64 // full-scale amplitude
}

func newQuantizer(bits int, clip float64) *quantizerStage {
	return &quantizerStage{delta: clip * math.Pow(2, -float64(bits-1)), clip: clip}
}

func (s *quantizerStage) Kind() Kind { return KindQuantizer }

func (s *quantizerStage) Reset() {}

func (s *quantizerStage) quant(v float64) float64 {
	if math.IsNaN(v) {
		return 0 // a real ADC emits some code; zero keeps downstream finite
	}
	if v > s.clip {
		return s.clip
	}
	if v < -s.clip {
		return -s.clip
	}
	return math.Round(v/s.delta) * s.delta
}

//bhss:hotpath
func (s *quantizerStage) ProcessAppend(dst, src []complex128) []complex128 {
	for _, v := range src {
		dst = append(dst, complex(s.quant(real(v)), s.quant(imag(v))))
	}
	return dst
}

// multipathStage is a static FIR channel: a direct-form delay line with
// sparse complex taps (delay in samples, complex gain). The direct path is
// tap 0 unless the profile overrides it.
type multipathStage struct {
	taps []complex128 // dense impulse response, taps[0] = direct path
	//bhss:scratch
	hist []complex128 // last len(taps)-1 input samples, newest last
}

// newMultipath builds the stage from a dense impulse response (taps[d] is
// the gain at delay d). The caller guarantees len(taps) >= 1.
func newMultipath(taps []complex128) *multipathStage {
	return &multipathStage{taps: taps, hist: make([]complex128, len(taps)-1)}
}

func (s *multipathStage) Kind() Kind { return KindMultipath }

func (s *multipathStage) Reset() {
	for i := range s.hist {
		s.hist[i] = 0
	}
}

//bhss:hotpath
func (s *multipathStage) ProcessAppend(dst, src []complex128) []complex128 {
	h := len(s.hist)
	for n := range src {
		var acc complex128
		for d, g := range s.taps {
			if g == 0 {
				continue
			}
			j := n - d
			var x complex128
			if j >= 0 {
				x = src[j]
			} else if h+j >= 0 {
				x = s.hist[h+j]
			}
			acc += g * x
		}
		dst = append(dst, acc)
	}
	// Slide the history: keep the last h input samples.
	if len(src) >= h {
		copy(s.hist, src[len(src)-h:])
	} else {
		copy(s.hist, s.hist[len(src):])
		copy(s.hist[h-len(src):], src)
	}
	return dst
}

// dropoutStage zeroes bursts of samples: receiver overflow, AGC recovery
// after a blocker, or transport loss. Dropout starts are a per-sample
// Bernoulli trial; lengths are drawn from an exponential of the given mean
// (minimum one sample). Both draws come from the seeded source, so dropout
// positions are reproducible.
type dropoutStage struct {
	prob    float64 // per-sample probability of starting a dropout
	meanLen float64 // mean dropout length in samples
	seed    uint64
	src     *prng.Source
	left    int   // samples remaining in the current dropout
	dropped int64 // total samples zeroed since construction/Reset
}

func newDropout(prob, meanLen float64, seed uint64) *dropoutStage {
	return &dropoutStage{prob: prob, meanLen: meanLen, seed: seed, src: prng.New(seed)}
}

func (s *dropoutStage) Kind() Kind { return KindDropout }

func (s *dropoutStage) Reset() { s.src.Reseed(s.seed); s.left = 0; s.dropped = 0 }

//bhss:hotpath
func (s *dropoutStage) ProcessAppend(dst, src []complex128) []complex128 {
	for _, v := range src {
		if s.left == 0 && s.src.Float64() < s.prob {
			u := s.src.Float64()
			n := int(-s.meanLen * math.Log(1-u))
			if n < 1 {
				n = 1
			}
			s.left = n
		}
		if s.left > 0 {
			s.left--
			s.dropped++
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, v)
	}
	return dst
}
