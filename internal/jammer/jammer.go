// Package jammer implements the attacker models of §2 of the paper: an
// energy-unconstrained but power-budgeted adversary that emits additive
// white Gaussian noise of an arbitrary bandwidth. Included are the
// fixed-bandwidth AWGN jammer used for Figures 13/14, the bandwidth-hopping
// jammer of Table 2 (reusing the defender's hop distributions), and the
// estimator followers of the arms race: the reactive jammer that senses the
// transmitted bandwidth and answers with a matched waveform after a bounded
// reaction time τ — the threat BHSS is designed to defeat — and its
// multitone and adaptive variants.
//
// All frequencies and bandwidths are normalized to the sampling rate
// (cycles per sample; two-sided band [−bw/2, +bw/2]).
package jammer

import (
	"fmt"
	"math"

	"bhss/internal/dsp"
	"bhss/internal/hop"
	"bhss/internal/prng"
)

// Source produces jamming samples with a fixed average power budget.
// Implementations are streaming: consecutive Emit calls produce a
// continuous waveform.
type Source interface {
	// Emit returns the next n jamming samples.
	Emit(n int) []complex128
	// Power returns the configured average transmit power.
	Power() float64
	// Reset rewinds the jammer to its exact construction state, so a
	// replayed call sequence reproduces the output stream bit-for-bit.
	Reset()
}

// Bandlimited is the paper's canonical jammer: white Gaussian noise
// band-limited to a configurable bandwidth at a configured total power.
type Bandlimited struct {
	power float64
	seed0 uint64
	src   *prng.Source
	fir   *dsp.FIR
	scale float64
	// warmDue marks a delay line still waiting for its warm-up draws,
	// which the next Emit takes ahead of its own samples.
	warmDue bool
	//bhss:scratch
	noise []complex128 // unshaped draws for the filter, reused across Emits
}

// filterTapsForBW returns a low-pass FIR selecting the two-sided bandwidth
// bw. For bw >= 1 the noise is already full-band and no filter is needed.
func filterTapsForBW(bw float64) *dsp.FIR {
	if bw >= 1 {
		return nil
	}
	cutoff := bw / 2
	if cutoff < 1e-4 {
		cutoff = 1e-4
	}
	taps := 129
	// Very narrow bands need more taps to be realized at all.
	if cutoff < 0.01 {
		taps = 513
	}
	return dsp.LowPassFIR(cutoff, taps, dsp.Blackman, 0)
}

// NewBandlimited returns a band-limited AWGN jammer with the given
// two-sided bandwidth (0 < bw <= 1, in cycles/sample) and average power.
func NewBandlimited(bw, power float64, seed uint64) (*Bandlimited, error) {
	if bw <= 0 || bw > 1 {
		return nil, fmt.Errorf("jammer: bandwidth %v out of (0, 1]", bw)
	}
	if power < 0 {
		return nil, fmt.Errorf("jammer: negative power %v", power)
	}
	b := &Bandlimited{power: power, seed0: seed, src: prng.New(seed), fir: filterTapsForBW(bw)}
	b.calibrate()
	b.warmDue = b.fir != nil
	return b, nil
}

// Reseed rewinds the jammer to the exact state of a freshly constructed
// NewBandlimited(bw, power, seed): the noise source is re-seeded and the
// filter's delay line cleared and marked for warm-up, so the emitted stream
// is bit-identical to a new jammer's. It lets Hopping reuse one Bandlimited
// per distribution entry instead of redesigning the band-selection filter
// every hop, and it allocates nothing.
func (b *Bandlimited) Reseed(seed uint64) {
	b.src.Reseed(seed)
	if b.fir != nil {
		b.fir.Reset()
		b.warmDue = true
	}
}

// Reset rewinds to the construction seed (Reseed with the original seed).
func (b *Bandlimited) Reset() { b.Reseed(b.seed0) }

// calibrate computes the filter's noise power gain so the emitted power
// hits the budget regardless of bandwidth: white noise of unit variance
// through an FIR h has output variance sum(|h|^2).
func (b *Bandlimited) calibrate() {
	if b.power == 0 {
		b.scale = 0
		return
	}
	if b.fir == nil {
		b.scale = math.Sqrt(b.power)
		return
	}
	var gain float64
	for _, tap := range b.fir.Taps() {
		gain += real(tap)*real(tap) + imag(tap)*imag(tap)
	}
	if gain <= 0 {
		b.scale = 0
		return
	}
	b.scale = math.Sqrt(b.power / gain)
}

// Power returns the jammer's average power.
func (b *Bandlimited) Power() float64 { return b.power }

// Emit returns the next n samples of band-limited noise, in a new slice the
// caller owns.
//
// After construction or Reseed the filter's delay line is first primed
// with one noise draw per tap, so the first emitted samples already carry
// full power: the jammer transmits continuously and the capture window
// just opens somewhere in its stream. Emit runs that warm-up and its own
// samples through the filter as one block, which streams bit-identically
// to two.
func (b *Bandlimited) Emit(n int) []complex128 {
	if b.scale == 0 {
		return make([]complex128, n)
	}
	var out []complex128
	if b.fir == nil {
		out = make([]complex128, n)
		b.src.ComplexNormInto(out)
	} else {
		warm := 0
		if b.warmDue {
			warm, b.warmDue = b.fir.Len(), false
		}
		if cap(b.noise) < warm+n {
			b.noise = make([]complex128, warm+n)
		}
		x := b.noise[:warm+n]
		b.src.ComplexNormInto(x)
		out = b.fir.Process(x)[warm:]
	}
	g := complex(b.scale, 0)
	for i := range out {
		out[i] *= g
	}
	return out
}

// Hopping re-draws its bandwidth from a hop distribution every
// samplesPerHop samples — the adversary of Table 2 that answers bandwidth
// hopping with bandwidth hopping. Bandwidths in the distribution are
// expressed in the same units as sampleRate (e.g. MHz against 20 MS/s).
type Hopping struct {
	dist          hop.Distribution
	sampleRate    float64
	samplesPerHop int
	power         float64
	seed0         uint64
	src           *prng.Source
	seedBase      uint64
	remaining     int
	cur           *Bandlimited
	// pool holds one pre-built Bandlimited per distribution entry; each hop
	// Reseeds the matching jammer instead of designing a fresh band filter,
	// so construction errors surface in NewHopping and Emit stays total.
	pool []*Bandlimited
}

// NewHopping returns a bandwidth-hopping jammer.
func NewHopping(dist hop.Distribution, sampleRate float64, samplesPerHop int, power float64, seed uint64) (*Hopping, error) {
	if err := dist.Validate(); err != nil {
		return nil, err
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("jammer: sample rate %v must be positive", sampleRate)
	}
	if samplesPerHop < 1 {
		return nil, fmt.Errorf("jammer: samplesPerHop %d must be >= 1", samplesPerHop)
	}
	pool := make([]*Bandlimited, len(dist.Bandwidths))
	for i, b := range dist.Bandwidths {
		if b > sampleRate {
			return nil, fmt.Errorf("jammer: bandwidth %v exceeds sample rate %v", b, sampleRate)
		}
		j, err := NewBandlimited(b/sampleRate, power, seed)
		if err != nil {
			return nil, fmt.Errorf("jammer: bandwidth %v: %w", b, err)
		}
		pool[i] = j
	}
	return &Hopping{
		dist: dist, sampleRate: sampleRate, samplesPerHop: samplesPerHop,
		power: power, seed0: seed, src: prng.New(seed), seedBase: seed, pool: pool,
	}, nil
}

// Power returns the jammer's average power.
func (h *Hopping) Power() float64 { return h.power }

// Reset rewinds the hop sequence and the seed chain to construction state.
func (h *Hopping) Reset() {
	h.src.Reseed(h.seed0)
	h.seedBase = h.seed0
	h.remaining = 0
	h.cur = nil
}

// Emit returns the next n samples, hopping bandwidth as it goes.
func (h *Hopping) Emit(n int) []complex128 {
	out := make([]complex128, 0, n)
	for len(out) < n {
		if h.remaining == 0 {
			idx := h.src.Choose(h.dist.Probs)
			h.seedBase = h.seedBase*0x9e3779b97f4a7c15 + 1
			// Reseed produces the exact sample stream a fresh
			// NewBandlimited(bw, power, seedBase) would emit, without the
			// per-hop filter design (and without a fallible call in the
			// streaming path).
			h.cur = h.pool[idx]
			h.cur.Reseed(h.seedBase)
			h.remaining = h.samplesPerHop
		}
		take := n - len(out)
		if take > h.remaining {
			take = h.remaining
		}
		out = append(out, h.cur.Emit(take)...)
		h.remaining -= take
	}
	return out
}

// The reactive, multitone and adaptive estimator-follower jammers live in
// follower.go; they share the streaming Welch sensing core defined there.
