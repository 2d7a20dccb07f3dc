// Package spectral implements power spectral density estimation and the
// derived measurements the BHSS receiver's control logic relies on: Welch's
// averaged-periodogram estimator (the paper, §4.2, cites Bartlett's and
// Welch's methods; the receiver runs Welch's), band power and
// occupied-bandwidth estimation.
//
// All PSDs have a power-of-two number of bins in *un-shifted* FFT bin order
// (bin 0 = DC) so they can be fed directly to dsp.WhiteningFIR, whose
// eq. (3) design expects that ordering. Use dsp.FFTShiftFloat for display
// ordering.
package spectral

import (
	"fmt"

	"bhss/internal/dsp"
	"bhss/internal/dsp/simd"
	"bhss/internal/obs"
)

// Estimator configures a Welch PSD estimator: Hamming-windowed segments
// with 50% overlap, the configuration most GNU Radio deployments default
// to.
type Estimator struct {
	// SegmentLength is the FFT size K of each periodogram segment, a power
	// of two.
	SegmentLength int
}

// Welch returns an estimator with segments of segmentLength samples.
func Welch(segmentLength int) Estimator {
	return Estimator{SegmentLength: segmentLength}
}

// PSD estimates the power spectral density of x. The result has
// SegmentLength bins in un-shifted order and is scaled so that the mean bin
// value equals the average signal power (sum over bins / K = power),
// i.e. white noise of power P yields a flat PSD of height P.
//
// An error is returned when the segment length is not a positive power of
// two or x is shorter than one segment. Callers that estimate one segment
// length in a loop should build a Reusable once and call PSDInto, which
// performs no allocation.
func (e Estimator) PSD(x []complex128) ([]float64, error) {
	r, err := e.Reusable()
	if err != nil {
		return nil, err
	}
	psd := make([]float64, e.SegmentLength)
	if err := r.PSDInto(psd, x); err != nil {
		return nil, err
	}
	return psd, nil
}

// Reusable holds an Estimator together with its pre-computed window, FFT
// plan and segment scratch, so repeated PSD estimates of the same segment
// length allocate nothing. It is not safe for concurrent use (the scratch
// is shared across calls).
type Reusable struct {
	est      Estimator
	win      []float64
	winPower float64
	plan     *dsp.FFTPlan
	met      *obs.PSDMetrics
	//bhss:scratch
	seg []complex128
}

// SetObserver attaches PSD metrics (nil detaches). Recording is
// allocation-free and never alters the estimate.
func (r *Reusable) SetObserver(m *obs.PSDMetrics) { r.met = m }

// Reusable validates the estimator's configuration and pre-computes the
// window and FFT plan.
func (e Estimator) Reusable() (*Reusable, error) {
	k := e.SegmentLength
	if k <= 0 || k&(k-1) != 0 {
		return nil, fmt.Errorf("spectral: segment length %d must be a positive power of two", k)
	}
	r := &Reusable{
		est:  e,
		win:  dsp.Hamming.Coefficients(k, 0),
		plan: dsp.PlanFFT(k),
		seg:  make([]complex128, k),
	}
	// Window power normalization: divide by sum(w^2) so the estimate is
	// unbiased for white signals regardless of taper.
	for _, w := range r.win {
		r.winPower += w * w
	}
	return r, nil
}

// PSDInto estimates the PSD of x into dst (len(dst) must be SegmentLength),
// with the same scaling as Estimator.PSD. Steady-state calls allocate
// nothing.
//
//bhss:hotpath
func (r *Reusable) PSDInto(dst []float64, x []complex128) error {
	var sw obs.Stopwatch
	if r.met != nil {
		sw = obs.Start()
	}
	k := r.est.SegmentLength
	if len(dst) != k {
		return fmt.Errorf("spectral: destination holds %d bins, need %d", len(dst), k)
	}
	if len(x) < k {
		return fmt.Errorf("spectral: need at least %d samples, have %d", k, len(x))
	}
	step := k - k/2 // segments overlap by k/2 samples
	for i := range dst {
		dst[i] = 0
	}
	segments := 0
	for start := 0; start+k <= len(x); start += step {
		simd.WindowInto(r.seg, x[start:start+k], r.win)
		r.plan.Forward(r.seg)
		simd.Mag2Accum(dst, r.seg)
		segments++
	}
	scale := 1 / (float64(segments) * r.winPower)
	for i := range dst {
		dst[i] *= scale
	}
	if r.met != nil {
		r.met.Calls.Inc()
		r.met.Segments.Add(int64(segments))
		r.met.EstimateNS.ObserveSince(sw)
	}
	// With this scaling, sum(psd)/K equals the average signal power; a
	// white signal of power P yields a flat PSD of height P per bin.
	return nil
}

// OccupiedBandwidth returns the two-sided bandwidth (in normalized frequency,
// cycles/sample, 0..1) containing the given fraction (e.g. 0.99) of the total
// power in the PSD, growing outward from the strongest bin. The PSD is in
// un-shifted order.
func OccupiedBandwidth(psd []float64, fraction float64) float64 {
	k := len(psd)
	if k == 0 {
		return 0
	}
	if fraction <= 0 {
		return 0
	}
	if fraction > 1 {
		fraction = 1
	}
	shifted := dsp.FFTShiftFloat(psd)
	var total float64
	peak, peakV := 0, -1.0
	for i, p := range shifted {
		total += p
		if p > peakV {
			peakV = p
			peak = i
		}
	}
	if total == 0 {
		return 0
	}
	lo, hi := peak, peak
	acc := shifted[peak]
	for acc < fraction*total && (lo > 0 || hi < k-1) {
		var nextLo, nextHi float64 = -1, -1
		if lo > 0 {
			nextLo = shifted[lo-1]
		}
		if hi < k-1 {
			nextHi = shifted[hi+1]
		}
		if nextHi >= nextLo {
			hi++
			acc += nextHi
		} else {
			lo--
			acc += nextLo
		}
	}
	return float64(hi-lo+1) / float64(k)
}

// BandPower integrates the PSD over the two-sided band [-bw/2, +bw/2]
// (normalized frequency) and returns the contained power. The PSD is in
// un-shifted order with mean-bin == average-power scaling (as produced by
// Estimator.PSD), so the result is directly comparable to dsp.Power. For a
// power-of-two PSD length, as every Estimator produces, 1/k is an exact power
// of two, so the per-bin reciprocal multiply rounds exactly as a division by
// k would.
//
//bhss:hotpath
func BandPower(psd []float64, bw float64) float64 {
	k := len(psd)
	if k == 0 || bw <= 0 {
		return 0
	}
	if bw > 1 {
		bw = 1
	}
	half := bw / 2
	var sum float64
	invK := 1 / float64(k)
	for i, p := range psd {
		f := float64(i) * invK
		if f >= 0.5 {
			f -= 1
		}
		if f >= -half && f <= half {
			sum += p
		}
	}
	// Estimator.PSD scales bins so that sum(psd)/K equals the average
	// signal power, hence the power inside the band is sum(bins)/K.
	return sum / float64(k)
}
