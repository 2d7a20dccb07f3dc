// Package stats provides the small unit-conversion and search toolbox
// shared by the theory and experiment layers: decibel conversions, evenly
// spaced sweep grids and a monotone threshold search used to locate the
// minimal SNR that achieves a target packet-loss rate (the paper's "power
// advantage" measurements).
package stats

import (
	"errors"
	"math"
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
