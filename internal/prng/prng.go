// Package prng provides a small, deterministic, allocation-free pseudo-random
// number generator used throughout the BHSS system.
//
// Both the transmitter and the receiver of a spread spectrum link must derive
// the same pseudo-random decisions (chip sequences, hop schedules) from a
// pre-shared seed, exactly as the "Random seed" blocks in Figures 4 and 6 of
// the paper. The standard library generators do not guarantee a stable stream
// across Go releases, so we implement xoshiro256** seeded by splitmix64: the
// stream is fully specified here and will never change underneath a deployed
// link.
//
// The generator is NOT cryptographically secure. The paper assumes a
// pre-shared random source whose output is unpredictable to the jammer; in a
// hardened deployment the Source below would be replaced by a keyed PRF
// (e.g. AES-CTR). The interface is deliberately tiny so that swap is a
// one-type change.
package prng

import (
	"math"
	"math/bits"

	"bhss/internal/dsp/simd"
)

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New. Source is not safe for concurrent use; give
// each goroutine its own Source (use Split).
type Source struct {
	s0, s1, s2, s3 uint64

	// Box-Muller cache for NormFloat64.
	haveGauss bool
	gauss     float64
}

// New returns a Source seeded from the given 64-bit seed via splitmix64,
// following the reference xoshiro seeding procedure.
func New(seed uint64) *Source {
	var s Source
	s.Reseed(seed)
	return &s
}

// Reseed re-initializes the generator state from seed, discarding any cached
// Gaussian value.
func (s *Source) Reseed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	s.s0, s.s1, s.s2, s.s3 = next(), next(), next(), next()
	// xoshiro must not start at the all-zero state; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
	s.haveGauss = false
	s.gauss = 0
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return result
}

// Split derives an independent child generator. The child stream is a pure
// function of the parent state at the time of the call, so transmitter and
// receiver that Split in the same order obtain identical children.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// Intn returns a uniformly distributed integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		//bhss:allow(panicpolicy) stdlib contract: math/rand.Intn panics identically on n <= 0
		panic("prng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	un := uint64(n)
	hi, lo := mul64(s.Uint64(), un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			hi, lo = mul64(s.Uint64(), un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal deviate using the Box-Muller
// transform with caching of the second deviate.
func (s *Source) NormFloat64() float64 {
	if s.haveGauss {
		s.haveGauss = false
		return s.gauss
	}
	var u float64
	for u == 0 {
		u = s.Float64()
	}
	v := s.Float64()
	r := math.Sqrt(-2 * math.Log(u))
	// Sincos shares one argument reduction and rounds exactly like
	// separate Sin and Cos calls.
	sin, cos := math.Sincos(2 * math.Pi * v)
	s.gauss = r * sin
	s.haveGauss = true
	return r * cos
}

// invSqrt2 scales a unit-variance deviate to one rail of a unit-power
// complex sample.
const invSqrt2 = 0.7071067811865476

// ComplexNorm returns a circularly symmetric complex Gaussian sample with
// total variance 1 (0.5 per rail).
func (s *Source) ComplexNorm() complex128 {
	return complex(s.NormFloat64()*invSqrt2, s.NormFloat64()*invSqrt2)
}

// normChunk is how many Box–Muller pairs ComplexNormInto draws per kernel
// call, into stack scratch.
const normChunk = 64

// ComplexNormInto fills dst with exactly what len(dst) calls to
// ComplexNorm would return, leaving the Source in the same state: the
// uniforms come off the stream in the same order (u, redrawn while 0,
// then v, per pair), and the transform runs in simd.BoxMuller, a chunk of
// pairs at a time.
//
// A deviate cached by an odd number of NormFloat64 calls would put every
// pair across two samples, so that case keeps the scalar path; no caller
// mixes the two kinds of draw on one Source.
func (s *Source) ComplexNormInto(dst []complex128) {
	if s.haveGauss {
		for i := range dst {
			dst[i] = s.ComplexNorm()
		}
		return
	}
	var u, v [normChunk]float64
	for len(dst) > 0 {
		n := min(len(dst), normChunk)
		for i := range n {
			x := s.Float64()
			for x == 0 {
				x = s.Float64()
			}
			u[i], v[i] = x, s.Float64()
		}
		simd.BoxMuller(dst[:n], u[:n], v[:n], invSqrt2)
		dst = dst[n:]
	}
}

// Bit returns a single uniformly distributed bit.
func (s *Source) Bit() int {
	return int(s.Uint64() >> 63)
}

// ChipBit returns ±1 with equal probability.
func (s *Source) ChipBit() float64 {
	if s.Bit() == 1 {
		return 1
	}
	return -1
}

// Perm fills dst with a uniformly random permutation of 0..len(dst)-1.
func (s *Source) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// Choose returns an index in [0, len(weights)) drawn according to the given
// non-negative weights. It panics if the weights are empty or sum to zero.
func (s *Source) Choose(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			//bhss:allow(panicpolicy) weights are validated plan-time config; a bad weight is a programming error
			panic("prng: negative or NaN weight")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		//bhss:allow(panicpolicy) weights are validated plan-time config; a bad weight is a programming error
		panic("prng: Choose requires positive total weight")
	}
	x := s.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
