// Package stats provides the small statistical and unit-conversion toolbox
// shared by the theory and experiment layers: decibel conversions, moment
// estimators, binomial confidence intervals for packet-loss measurements and
// a monotone threshold search used to locate the minimal SNR that achieves a
// target packet-loss rate (the paper's "power advantage" measurements).
package stats

import (
	"errors"
	"math"
	"sort"
)

// DB converts a linear power ratio to decibels.
func DB(linear float64) float64 {
	return 10 * math.Log10(linear)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// AmplitudeFromDB converts a power ratio in dB to the corresponding amplitude
// scale factor (sqrt of the linear power ratio).
func AmplitudeFromDB(db float64) float64 {
	return math.Pow(10, db/20)
}

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs. It returns 0 when
// fewer than two samples are available.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return 0.5 * (cp[n/2-1] + cp[n/2])
}

// WilsonInterval returns the 95% Wilson score interval for a binomial
// proportion with k successes out of n trials. It is well behaved near 0 and
// 1, which matters for low packet-loss measurements.
func WilsonInterval(k, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	margin := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo = center - margin
	hi = center + margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// ErrNoThreshold is returned by FindThreshold when the predicate never
// becomes true on the search interval.
var ErrNoThreshold = errors.New("stats: predicate false over entire interval")

// FindThreshold locates the smallest x in [lo, hi] (within tol) such that
// ok(x) is true, assuming ok is monotone non-decreasing in x (false below
// some threshold, true above). It is used to find the minimal SNR achieving
// a packet-loss target. The predicate is first checked at hi; if even hi
// fails, ErrNoThreshold is returned.
func FindThreshold(lo, hi, tol float64, ok func(x float64) bool) (float64, error) {
	if lo > hi {
		lo, hi = hi, lo
	}
	if !ok(hi) {
		return 0, ErrNoThreshold
	}
	if ok(lo) {
		return lo, nil
	}
	for hi-lo > tol {
		mid := 0.5 * (lo + hi)
		if ok(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// Histogram bins xs into nbins equal-width bins over [min, max] and returns
// the counts. Samples outside the range are clamped into the edge bins.
func Histogram(xs []float64, min, max float64, nbins int) []int {
	counts := make([]int, nbins)
	if nbins == 0 || max <= min {
		return counts
	}
	w := (max - min) / float64(nbins)
	for _, x := range xs {
		i := int((x - min) / w)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		counts[i]++
	}
	return counts
}

// Linspace returns n evenly spaced points from start to stop inclusive.
func Linspace(start, stop float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{start}
	}
	out := make([]float64, n)
	step := (stop - start) / float64(n-1)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

// Logspace returns n logarithmically spaced points from 10^startExp to
// 10^stopExp inclusive.
func Logspace(startExp, stopExp float64, n int) []float64 {
	lin := Linspace(startExp, stopExp, n)
	for i, v := range lin {
		lin[i] = math.Pow(10, v)
	}
	return lin
}

// Erfc is math.Erfc re-exported for call-site symmetry with the paper's
// equation (16).
func Erfc(x float64) float64 { return math.Erfc(x) }

// QFunc is the Gaussian tail probability Q(x) = 0.5 erfc(x/sqrt2).
func QFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}
