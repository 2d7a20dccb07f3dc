// Package hop implements the randomized bandwidth hopping patterns of the
// paper's §6.4.1: Linear (uniform over the bandwidth set), Exponential
// (probability proportional to bandwidth, equalizing airtime per bandwidth)
// and Parabolic (a maximin-robust distribution favoring the band edges,
// derived by Monte Carlo optimization exactly as the paper describes). Both
// link ends draw each frame's hops from a distribution with a source seeded
// from the pre-shared secret (internal/core).
package hop

import (
	"fmt"
	"math"

	"bhss/internal/prng"
)

// DefaultBandwidths returns the paper's seven bandwidths in MHz:
// 10, 5, 2.5, 1.25, 0.625, 0.3125, 0.15625 (hopping range 64).
func DefaultBandwidths() []float64 {
	return []float64{10, 5, 2.5, 1.25, 0.625, 0.3125, 0.15625}
}

// DefaultSymbolsPerHop is how many DSSS symbols are sent per bandwidth hop.
// The paper changes the pulse duration "after a configurable number of
// symbols"; sub-symbol hopping is unnecessary because a reactive jammer
// needs a couple of symbols to estimate the bandwidth (§6.1).
const DefaultSymbolsPerHop = 4

// Pattern names a hopping strategy.
type Pattern int

const (
	// Fixed disables hopping (the conventional DSSS baseline).
	Fixed Pattern = iota
	// Linear hops uniformly over the bandwidth set.
	Linear
	// Exponential weights each bandwidth proportionally to its value so
	// every bandwidth is used for the same total airtime.
	Exponential
	// Parabolic favors the smallest and largest bandwidths, maximizing
	// the minimum power advantage over all jammer bandwidths.
	Parabolic
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case Fixed:
		return "fixed"
	case Linear:
		return "linear"
	case Exponential:
		return "exponential"
	case Parabolic:
		return "parabolic"
	default:
		return "unknown"
	}
}

// ParsePattern returns the pattern whose String is name.
func ParsePattern(name string) (Pattern, error) {
	for p := Fixed; p <= Parabolic; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("hop: unknown pattern %q", name)
}

// Distribution is a probability distribution over a bandwidth set.
type Distribution struct {
	Bandwidths []float64
	Probs      []float64
}

// paperParabolic holds the distribution of Table 1 for the default
// seven-bandwidth set (percentages 27.1, 15.8, 6.3, 0.1, 1.3, 22.0, 27.4).
var paperParabolic = []float64{0.271, 0.158, 0.063, 0.001, 0.013, 0.220, 0.274}

// NewDistribution builds the distribution of the given pattern over the
// bandwidth set. For Fixed, the largest bandwidth gets probability one.
// For Parabolic with the 7-entry default set, the paper's Table 1 values
// are used; other sets fall back to a symmetric edge-weighted parabola
// (use OptimizeMaximin to derive a tuned one).
func NewDistribution(p Pattern, bandwidths []float64) (Distribution, error) {
	n := len(bandwidths)
	if n == 0 {
		return Distribution{}, fmt.Errorf("hop: empty bandwidth set")
	}
	for _, b := range bandwidths {
		if b <= 0 {
			return Distribution{}, fmt.Errorf("hop: bandwidth %v must be positive", b)
		}
	}
	probs := make([]float64, n)
	switch p {
	case Fixed:
		maxI := 0
		for i, b := range bandwidths {
			if b > bandwidths[maxI] {
				maxI = i
			}
		}
		probs[maxI] = 1
	case Linear:
		for i := range probs {
			probs[i] = 1 / float64(n)
		}
	case Exponential:
		var sum float64
		for _, b := range bandwidths {
			sum += b
		}
		for i, b := range bandwidths {
			probs[i] = b / sum
		}
	case Parabolic:
		if n == len(paperParabolic) {
			copy(probs, paperParabolic)
		} else if n == 1 {
			probs[0] = 1
		} else {
			// Symmetric parabola over index, normalized.
			var sum float64
			mid := float64(n-1) / 2
			for i := range probs {
				d := (float64(i) - mid) / mid
				probs[i] = d*d + 0.05
				sum += probs[i]
			}
			for i := range probs {
				probs[i] /= sum
			}
		}
	default:
		return Distribution{}, fmt.Errorf("hop: unknown pattern %d", p)
	}
	return Distribution{
		Bandwidths: append([]float64(nil), bandwidths...),
		Probs:      probs,
	}, nil
}

// Validate checks that the distribution is well formed (matching lengths,
// non-negative probabilities summing to ~1, positive bandwidths).
func (d Distribution) Validate() error {
	if len(d.Bandwidths) == 0 || len(d.Bandwidths) != len(d.Probs) {
		return fmt.Errorf("hop: %d bandwidths vs %d probabilities", len(d.Bandwidths), len(d.Probs))
	}
	var sum float64
	for i, p := range d.Probs {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("hop: probability %d is %v", i, p)
		}
		if d.Bandwidths[i] <= 0 {
			return fmt.Errorf("hop: bandwidth %d is %v", i, d.Bandwidths[i])
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("hop: probabilities sum to %v", sum)
	}
	return nil
}

// AverageBandwidth returns the expected bandwidth E[B].
func (d Distribution) AverageBandwidth() float64 {
	var avg float64
	for i, p := range d.Probs {
		avg += p * d.Bandwidths[i]
	}
	return avg
}

// AverageThroughput returns the expected data rate in bits per unit
// bandwidth-time: bandwidth/spreadingFactor summed over the distribution.
// With bandwidths in MHz and a spreading factor of 8 chips/bit this yields
// Mb/s, reproducing the paper's 354/840/471 kb/s figures.
//
//bhss:planphase distribution analysis helper; runs on validated plan-time config
func (d Distribution) AverageThroughput(spreadingFactor float64) float64 {
	if spreadingFactor <= 0 {
		panic("hop: spreading factor must be positive")
	}
	return d.AverageBandwidth() / spreadingFactor
}

// PayoffFunc scores the defender's advantage (in dB) when the signal uses
// bandwidth bp against a jammer of bandwidth bj. The maximin optimizer uses
// it to derive parabolic-style distributions; internal/theory provides the
// paper's SNR-improvement bound as a natural payoff.
type PayoffFunc func(bp, bj float64) float64

// OptimizeMaximin searches for the distribution over bandwidths that
// maximizes the minimum expected payoff over all jammer bandwidths drawn
// from the same set (the paper derives its parabolic pattern this way,
// §6.4.1: "we compute a parabolic distribution that provides the maximum
// minimal power advantage for all possible jammer bandwidths"). It runs a
// seeded Monte Carlo search with iters candidate refinements.
func OptimizeMaximin(bandwidths []float64, payoff PayoffFunc, iters int, seed uint64) (Distribution, error) {
	n := len(bandwidths)
	if n == 0 {
		return Distribution{}, fmt.Errorf("hop: empty bandwidth set")
	}
	if iters < 1 {
		iters = 1
	}
	// Precompute the payoff matrix.
	pay := make([][]float64, n)
	for i := range pay {
		pay[i] = make([]float64, n)
		for j := range pay[i] {
			pay[i][j] = payoff(bandwidths[i], bandwidths[j])
		}
	}
	score := func(p []float64) float64 {
		worst := math.Inf(1)
		for j := 0; j < n; j++ {
			var e float64
			for i := 0; i < n; i++ {
				e += p[i] * pay[i][j]
			}
			if e < worst {
				worst = e
			}
		}
		return worst
	}
	src := prng.New(seed)
	best := make([]float64, n)
	for i := range best {
		best[i] = 1 / float64(n)
	}
	bestScore := score(best)
	cand := make([]float64, n)
	for it := 0; it < iters; it++ {
		// Perturb the incumbent (or restart from random occasionally).
		var temp float64 = 0.5 * (1 - float64(it)/float64(iters))
		restart := it%97 == 96
		var sum float64
		for i := range cand {
			v := best[i]
			if restart {
				v = src.Float64()
			} else {
				v += temp * (src.Float64() - 0.5)
			}
			if v < 0 {
				v = 0
			}
			cand[i] = v
			sum += v
		}
		if sum == 0 {
			continue
		}
		for i := range cand {
			cand[i] /= sum
		}
		if s := score(cand); s > bestScore {
			bestScore = s
			copy(best, cand)
		}
	}
	return Distribution{
		Bandwidths: append([]float64(nil), bandwidths...),
		Probs:      best,
	}, nil
}

// MinExpectedPayoff returns min over jammer bandwidths of the expected
// payoff under the distribution — the value OptimizeMaximin maximizes.
func MinExpectedPayoff(d Distribution, jammerBWs []float64, payoff PayoffFunc) float64 {
	worst := math.Inf(1)
	for _, bj := range jammerBWs {
		var e float64
		for i, p := range d.Probs {
			e += p * payoff(d.Bandwidths[i], bj)
		}
		if e < worst {
			worst = e
		}
	}
	return worst
}

// BestResponse returns the index of the bandwidth that maximizes the payoff
// against a *fixed* jammer bandwidth. §5.3 of the paper observes that "a
// BHSS system may also respond to jammers of fixed bandwidth by stopping to
// hop and selecting a bandwidth that achieves the lowest bit error rate
// given the bandwidth of the jammer" — this is that selection. It is the
// move that forces a rational jammer to hop randomly itself (Table 2).
func BestResponse(bandwidths []float64, jammerBW float64, payoff PayoffFunc) (int, error) {
	if len(bandwidths) == 0 {
		return 0, fmt.Errorf("hop: empty bandwidth set")
	}
	best, bestPay := 0, math.Inf(-1)
	for i, bp := range bandwidths {
		if p := payoff(bp, jammerBW); p > bestPay {
			bestPay = p
			best = i
		}
	}
	return best, nil
}
