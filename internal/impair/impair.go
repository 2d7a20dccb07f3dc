// Package impair is a composable, seeded, deterministic chain of
// sample-domain RF impairments: the difference between the paper's real
// USRP N210 front ends and this repository's ideal AWGN medium. The
// prototype's receiver loops (internal/tracking) were constantly fighting
// carrier frequency offset, sample-clock offset, oscillator phase noise and
// ADC quantization; the virtual testbed models none of them, so those loops
// are never truly exercised end-to-end. This package closes that gap.
//
// Each impairment is a streaming Stage: it consumes one block of complex
// baseband samples, appends the impaired samples to a caller-provided
// buffer, and carries its state (oscillator phase, resampler position)
// across blocks, so a long capture processed in arbitrary block sizes is
// bit-identical to the same capture processed at once. Phase noise draws
// from internal/prng seeded at construction: the same seed always produces
// the same impaired waveform, which is what makes golden-vector and
// property testing of the receiver possible at all.
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
}

// Kind enumerates the impairment stages in their fixed chain order: the
// receiver front end's LO offset, LO phase noise, ADC clock and
// quantization.
type Kind int

const (
	KindCFO Kind = iota
	KindPhaseNoise
	KindClock
	KindQuantizer
	numKinds
)

// NumKinds is the number of defined impairment kinds.
const NumKinds = int(numKinds)

var kindNames = [numKinds]string{"cfo", "phnoise", "clock", "quant"}

// String returns the stage's spec key ("cfo", "quant", ...).
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// cfoStage rotates the stream by a fixed carrier frequency offset, the LO
// mismatch between free-running oscillators. Same recurrence as dsp.Mix
// (periodically renormalized complex oscillator) but with the oscillator
// state persisted across blocks.
type cfoStage struct {
	step   complex128 // e^{j2πf}
	osc    complex128 // current oscillator value, 1 at construction
	renorm int
}

func newCFO(cyclesPerSample float64) *cfoStage {
	return &cfoStage{
		step: complex(math.Cos(2*math.Pi*cyclesPerSample), math.Sin(2*math.Pi*cyclesPerSample)),
		osc:  1,
	}
}

func (s *cfoStage) Kind() Kind { return KindCFO }

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
	src   *prng.Source
	phase float64
}

func newPhaseNoise(sigma float64, seed uint64) *phaseNoiseStage {
	return &phaseNoiseStage{sigma: sigma, src: prng.New(seed)}
}

func (s *phaseNoiseStage) Kind() Kind { return KindPhaseNoise }

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

// quantClip is the quantizer's full-scale amplitude. Unit-power signals
// plus strong jammers still mostly fit; overdrive clips, as a real front
// end would.
const quantClip = 1.5

// quantizerStage is a mid-tread uniform ADC model: each rail is rounded to
// the nearest of 2^bits levels spanning [-quantClip, +quantClip] and
// clipped at full scale, reproducing both quantization noise and front-end
// saturation.
type quantizerStage struct {
	delta float64 // one LSB
}

func newQuantizer(bits int) *quantizerStage {
	return &quantizerStage{delta: quantClip * math.Pow(2, -float64(bits-1))}
}

func (s *quantizerStage) Kind() Kind { return KindQuantizer }

func (s *quantizerStage) quant(v float64) float64 {
	if math.IsNaN(v) {
		return 0 // a real ADC emits some code; zero keeps downstream finite
	}
	if v > quantClip {
		return quantClip
	}
	if v < -quantClip {
		return -quantClip
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
