package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"bhss/internal/dsp/simd"
	"bhss/internal/obs"
)

// FFTPlan caches everything a radix-2 FFT of one power-of-two size needs:
// the bit-reversal permutation and the per-stage twiddle-factor tables.
// Executing a plan performs no trigonometry and no allocation, so steady-
// state transform loops run entirely out of the caller's buffers. Plans are
// immutable after construction and safe for concurrent use; Forward and
// Inverse work in place on caller-provided slices (the "scratch" is the
// signal buffer itself).
//
// Callers that transform one size in a loop should hold the plan in a
// variable; one-shot callers can go through PlanFFT, which memoizes plans
// per size in a package-level cache.
type FFTPlan struct {
	n int
	// swaps lists the bit-reversal permutation as (i, rev[i]) pairs with
	// i < rev[i], flattened. Walking only the pairs that actually move
	// halves the permutation pass's memory traffic and removes the
	// branch-per-element of scanning the full rev table.
	swaps []int32
	tw    []complex128 // forward twiddles, stages concatenated, n-1 entries
}

// planCache memoizes FFTPlans per size. Plans are tiny relative to the
// signals they transform (~24 bytes per point) and the pipeline only ever
// touches a handful of sizes, so the cache is unbounded.
var planCache sync.Map // int -> *FFTPlan

// The plan cache is process-wide, so its hit/miss counters are too: they
// register with obs as globals and show up in every pipeline snapshot.
var planCacheHits, planCacheMisses obs.Counter

func init() {
	obs.RegisterGlobal("dsp.fftplan.hit", planCacheHits.Load)
	obs.RegisterGlobal("dsp.fftplan.miss", planCacheMisses.Load)
}

// PlanFFT returns the (memoized) plan for an n-point transform. n must be a
// power of two >= 1.
//
//bhss:planphase plan construction; a non-power-of-two size is a programming error
func PlanFFT(n int) *FFTPlan {
	if v, ok := planCache.Load(n); ok {
		planCacheHits.Inc()
		return v.(*FFTPlan)
	}
	planCacheMisses.Inc()
	p, err := NewFFTPlan(n)
	if err != nil {
		panic(err)
	}
	v, _ := planCache.LoadOrStore(n, p)
	return v.(*FFTPlan)
}

// NewFFTPlan builds an uncached plan for an n-point transform. n must be a
// power of two >= 1. Use PlanFFT unless the caller manages plan lifetime
// itself.
func NewFFTPlan(n int) (*FFTPlan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT plan size %d is not a power of two", n)
	}
	p := &FFTPlan{n: n}
	logN := bits.TrailingZeros(uint(n))
	for i := 0; i < n; i++ {
		r := int32(bits.Reverse32(uint32(i)) >> (32 - logN))
		if int32(i) < r {
			p.swaps = append(p.swaps, int32(i), r)
		}
	}
	if n == 1 {
		return p, nil
	}
	// Twiddles for stage of butterfly span `size` live at offset size/2-1:
	// the halves of all previous stages sum to exactly that (1+2+...+size/4).
	p.tw = make([]complex128, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		base := half - 1
		for k := 0; k < half; k++ {
			ang := -2 * math.Pi * float64(k) / float64(size)
			p.tw[base+k] = complex(math.Cos(ang), math.Sin(ang))
		}
	}
	return p, nil
}

// Forward computes the in-place forward DFT (e^{-j2πnk/N} convention, no
// normalization). len(x) must equal the plan size.
//
//bhss:hotpath
func (p *FFTPlan) Forward(x []complex128) {
	p.transform(x, false)
}

// Inverse computes the in-place inverse DFT with 1/N normalization.
//
//bhss:hotpath
func (p *FFTPlan) Inverse(x []complex128) {
	p.transform(x, true)
	Scale(x, 1/float64(p.n))
}

// inverseUnscaled is Inverse without the 1/N pass, for overlap-save, which
// folds the normalization into its frequency-domain table.
func (p *FFTPlan) inverseUnscaled(x []complex128) {
	p.transform(x, true)
}

// transform runs the decimation-in-time flow on bit-reversed input. Pairs of
// radix-2 stages are fused into radix-4 passes: each pass reads and writes
// every element once (half the memory traffic) and spends 3 twiddle
// multiplies per 4 points where two radix-2 stages spend 4. The twiddle
// tables are shared with the radix-2 formulation — the second fused stage's
// upper-half twiddles are the lower half times ∓i, applied as a
// swap-and-negate. The inverse direction conjugates the forward tables.
func (p *FFTPlan) transform(x []complex128, inverse bool) {
	n := p.n
	if len(x) != n {
		//bhss:allow(panicpolicy) zero-alloc execute contract: wrong-size input is a caller bug, like copy() with bad bounds
		panic(fmt.Sprintf("dsp: FFT plan size %d given %d samples", n, len(x)))
	}
	for i := 0; i < len(p.swaps); i += 2 {
		a, b := p.swaps[i], p.swaps[i+1]
		x[a], x[b] = x[b], x[a]
	}
	if n < 2 {
		return
	}
	var h int
	if bits.TrailingZeros(uint(n))&1 == 1 {
		// Odd number of radix-2 stages: run the twiddle-free span-2 stage
		// alone so an even count remains for the fused passes.
		simd.Span2(x)
		h = 2
	} else {
		// The first fused pass (spans 2 and 4) has unit twiddles
		// throughout; it runs as pure adds with the ∓i rotation applied as
		// a swap-and-negate.
		if inverse {
			simd.Unit4Inverse(x)
		} else {
			simd.Unit4Forward(x)
		}
		h = 4
	}
	// Each fused pass combines the radix-2 stages of spans 2h and 4h over
	// blocks of four h-length quarters. The kernels iterate all blocks; the
	// inverse direction conjugates the twiddles in-kernel.
	for ; 4*h <= n; h *= 4 {
		twA := p.tw[h-1 : h-1+h]     // span-2h stage twiddles
		twB := p.tw[2*h-1 : 2*h-1+h] // span-4h stage, lower half
		if inverse {
			simd.Radix4Inverse(x, h, twA, twB)
		} else {
			simd.Radix4Forward(x, h, twA, twB)
		}
	}
}
