package dsp

import (
	"fmt"
	"math"
	"math/cmplx"

	"bhss/internal/dsp/simd"
)

// FIR is a finite impulse response filter with complex taps. Filtering is
// available in two forms: streaming (Process, with state carried across
// calls) and one-shot FFT overlap-save convolution through Convolver.
type FIR struct {
	taps []complex128
	// rtaps holds the real taps of a NewFIRReal filter, which Process runs
	// through the vector kernel; nil for complex taps.
	rtaps []float64
	//bhss:scratch
	state []complex128 // delay line for streaming use, len == len(taps)-1
	//bhss:scratch
	buf []complex128 // Process's state+input window
	ols *OverlapSave // lazily built fast convolver, shares the taps
}

// NewFIR returns a filter with the given taps. The taps slice is copied.
func NewFIR(taps []complex128) *FIR {
	if len(taps) == 0 {
		panic("dsp: FIR requires at least one tap")
	}
	f := &FIR{taps: append([]complex128(nil), taps...)}
	f.state = make([]complex128, len(taps)-1)
	return f
}

// NewFIRReal returns a filter from real-valued taps. The taps slice is
// copied.
func NewFIRReal(taps []float64) *FIR {
	c := make([]complex128, len(taps))
	for i, t := range taps {
		c[i] = complex(t, 0)
	}
	f := NewFIR(c)
	f.rtaps = append([]float64(nil), taps...)
	return f
}

// Taps returns a copy of the filter taps.
func (f *FIR) Taps() []complex128 {
	return append([]complex128(nil), f.taps...)
}

// Len returns the number of taps.
func (f *FIR) Len() int { return len(f.taps) }

// Reset clears the streaming delay line.
func (f *FIR) Reset() {
	for i := range f.state {
		f.state[i] = 0
	}
}

// Process filters a block of samples, carrying the delay line across calls,
// and returns a new slice of the same length. The output at index i is
// sum_k taps[k] * x[i-k] with history from previous blocks, summed in
// ascending k from zero. Real-tap filters run the simd.FIRReal kernel,
// which keeps that order and so matches the complex-tap loop bit for bit
// on finite input.
func (f *FIR) Process(x []complex128) []complex128 {
	k := len(f.taps)
	out := make([]complex128, len(x))
	// Work on a contiguous buffer of state + input for branch-free inner loop.
	buf := append(append(f.buf[:0], f.state...), x...)
	f.buf = buf
	if f.rtaps != nil {
		simd.FIRReal(out, buf, f.rtaps)
	} else {
		for i := range x {
			var acc complex128
			base := i + k - 1
			for t := 0; t < k; t++ {
				acc += f.taps[t] * buf[base-t]
			}
			out[i] = acc
		}
	}
	// Save tail as next state.
	copy(f.state, buf[len(buf)-(k-1):])
	return out
}

// Convolver returns the filter's overlap-save convolver, building it (and
// the taps' frequency-domain transform) on first use. Callers that filter
// into reusable buffers should go through it directly: its Apply*/Process
// methods append to caller-provided slices and allocate nothing once those
// have capacity. The convolver shares the FIR's concurrency constraints
// (one goroutine at a time).
func (f *FIR) Convolver() *OverlapSave {
	if f.ols == nil {
		f.ols = NewOverlapSave(f.taps)
	}
	return f.ols
}

// Convolve returns the full linear convolution of x and h (length
// len(x)+len(h)-1) by the direct method: the reference the overlap-save
// convolver is checked against.
func Convolve(x, h []complex128) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	out := make([]complex128, len(x)+len(h)-1)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, hv := range h {
			out[i+j] += xv * hv
		}
	}
	return out
}

// FrequencyResponse evaluates the filter's DFT H(k) at nfft equally spaced
// frequencies (un-shifted bin ordering), per eq. (2) of the paper.
func (f *FIR) FrequencyResponse(nfft int) []complex128 {
	h := make([]complex128, nfft)
	copy(h, f.taps)
	if len(f.taps) > nfft {
		// Alias taps that do not fit (rare; matches DFT periodicity).
		h = make([]complex128, nfft)
		for i, t := range f.taps {
			h[i%nfft] += t
		}
	}
	return FFT(h)
}

// LowPassFIR designs a linear-phase windowed-sinc low-pass filter with the
// given cutoff (normalized frequency, cycles/sample, 0 < cutoff < 0.5) and
// number of taps. The passband gain is normalized to one at DC. This is the
// receiver's eq. (4) filter for wide-band jammers.
//
//bhss:planphase filter design runs at construction time; invalid specs are caller bugs
func LowPassFIR(cutoff float64, numTaps int, win Window, beta float64) *FIR {
	if cutoff <= 0 || cutoff >= 0.5 {
		panic(fmt.Sprintf("dsp: low-pass cutoff %v out of (0, 0.5)", cutoff))
	}
	if numTaps < 1 {
		panic("dsp: need at least one tap")
	}
	w := win.Coefficients(numTaps, beta)
	taps := make([]float64, numTaps)
	mid := float64(numTaps-1) / 2
	var sum float64
	for i := range taps {
		t := 2 * cutoff * Sinc(2*cutoff*(float64(i)-mid))
		t *= w[i]
		taps[i] = t
		sum += t
	}
	// Unity DC gain.
	if sum != 0 {
		for i := range taps {
			taps[i] /= sum
		}
	}
	return NewFIRReal(taps)
}

// LowPassForAttenuation designs a low-pass FIR from a stop-band attenuation
// target (dB) and transition width (normalized frequency) using a Kaiser
// window, mirroring the paper's "transition width of 10 kHz and stop-band
// attenuation of 70 dB" specification. maxTaps bounds the filter order (the
// paper's hardware capped it at 3181 taps).
func LowPassForAttenuation(cutoff, attenDB, transitionWidth float64, maxTaps int) *FIR {
	order := KaiserOrder(attenDB, transitionWidth)
	numTaps := order + 1
	if maxTaps > 0 && numTaps > maxTaps {
		numTaps = maxTaps
		if numTaps%2 == 0 {
			numTaps--
		}
	}
	return LowPassFIR(cutoff, numTaps, Kaiser, KaiserBeta(attenDB))
}

// WhiteningFIR designs the paper's excision filter (eq. (3)): a filter whose
// DFT magnitude is the reciprocal of the square root of the estimated power
// spectral density, with the linear phase term e^{-jπ(K-1)k/K}. psd must hold
// K strictly positive values in un-shifted bin order; bins at or below
// floor*max(psd) are clamped to avoid amplifying empty bands.
//
// The filter whitens the incoming spectrum: frequencies occupied by a
// narrow-band jammer receive large attenuation while the rest of the band is
// nearly untouched.
//
// The design runs per hop on a live PSD estimate, so malformed input is
// reported as an error rather than panicking a streaming pipeline.
func WhiteningFIR(psd []float64, floor float64) (*FIR, error) {
	k := len(psd)
	if k == 0 {
		return nil, fmt.Errorf("dsp: whitening filter needs a non-empty PSD")
	}
	if floor <= 0 {
		floor = 1e-12
	}
	var maxP float64
	for _, p := range psd {
		if p > maxP {
			maxP = p
		}
	}
	if maxP == 0 {
		maxP = 1
	}
	clamp := maxP * floor
	spec := make([]complex128, k)
	for i, p := range psd {
		if p < clamp {
			p = clamp
		}
		spec[i] = complex(1/math.Sqrt(p), 0)
	}
	taps, err := linearPhaseInto(nil, spec)
	if err != nil {
		return nil, err
	}
	f := NewFIR(taps)
	// Normalize so the median pass-band gain is ~1, keeping the overall
	// signal level stable.
	resp := f.FrequencyResponse(k)
	mags := make([]float64, k)
	for i, r := range resp {
		mags[i] = cmplx.Abs(r)
	}
	med := MedianFloats(mags)
	if med > 0 {
		for i := range f.taps {
			f.taps[i] /= complex(med, 0)
		}
	}
	return f, nil
}

// linearPhaseInto turns the K-point magnitude target held in spec's real
// parts (un-shifted bin order) into the taps of an exactly linear-phase FIR,
// written into taps' storage (grown only when its capacity is short) and
// returned. The target may be asymmetric in ±f (a one-sided jammer notch),
// so the taps are complex but Hermitian around the center (h[c+d] =
// conj(h[c-d])), which keeps the frequency response real — zero phase up to
// an integer delay. The zero-phase impulse response from the inverse DFT is
// rotated so its peak sits at the integer center c = (L-1)/2 with L = K-1
// (odd) taps — the alignment OverlapSave.ApplySame compensates exactly.
// (A direct e^{-jπ(K-1)k/K} phase term as written in eq. (3) puts the delay
// at the half-sample (K-1)/2, which an integer-aligned convolution cannot
// undo without distortion.) For a power-of-two K the inverse DFT runs in
// place in spec and the call allocates nothing once taps has capacity;
// other sizes transform into a new buffer.
func linearPhaseInto(taps, spec []complex128) ([]complex128, error) {
	k := len(spec)
	if k < 3 {
		return nil, fmt.Errorf("dsp: magnitude response needs >= 3 bins, got %d", k)
	}
	h0 := IFFT(spec) // zero-phase: h0[-n] = conj(h0[n]) for a real target
	L := k - 1
	if L%2 == 0 {
		L--
	}
	c := (L - 1) / 2
	if cap(taps) < L {
		taps = make([]complex128, L)
	}
	taps = taps[:L]
	for i := range taps {
		idx := ((i-c)%k + k) % k
		taps[i] = h0[idx]
	}
	return taps, nil
}

// SmoothPSDInto writes into dst a circularly smoothed copy of a PSD: a
// moving average of the given width (forced odd, >= 1). dst must have the
// same length as psd and must not alias it. Averaged-periodogram estimates
// from short captures scatter heavily per bin; smoothing before threshold
// tests and filter design keeps the excision filter from cutting
// estimation noise. The circular moving average is computed with a running
// window sum, so the cost is O(n + width) rather than O(n*width).
//
//bhss:hotpath
func SmoothPSDInto(dst, psd []float64, width int) {
	n := len(psd)
	if len(dst) != n {
		//bhss:allow(panicpolicy) zero-alloc Into contract: mismatched dst is a caller bug, like copy() with bad bounds
		panic("dsp: SmoothPSDInto length mismatch")
	}
	if n == 0 {
		return
	}
	if width < 1 {
		width = 1
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	var sum float64
	for d := -half; d <= half; d++ {
		// Wrap-around window seed: the indices fold mod n; this runs once
		// per call over `width` bins, not per bin.
		sum += psd[((d%n)+n)%n]
	}
	inv := 1 / float64(width)
	// Wrapping indices advance by one per bin, so the slide needs no modulo
	// in the hot loop: bin `in` enters the window, bin `out` leaves.
	in := (half + 1) % n
	out := n - half%n
	if out == n {
		out = 0
	}
	for i := 0; i < n; i++ {
		dst[i] = sum * inv
		sum += psd[in] - psd[out]
		in++
		if in == n {
			in = 0
		}
		out++
		if out == n {
			out = 0
		}
	}
}

// notchDepth is how far below the target level notched bins are pushed:
// flooring them exactly at the signal level would leave a residual strong
// enough to steer the receiver's carrier loop when the jammer sits at the
// band center.
const notchDepth = 16

// ShapedNotchFIR designs the receiver's excision filter from a PSD
// estimate and a frequency-dependent target level: bin i is acceptable up
// to threshold*target[i] and notched down to target[i]/notchDepth beyond
// that (|H| = sqrt(target/(notchDepth·psd))); all other bins pass with
// unit gain. Like the eq. (3) whitening filter it suppresses exactly the
// spectrum the jammer occupies, but unlike raw reciprocal whitening it
// leaves the rest untouched, which keeps estimation noise from distorting
// the desired signal. Receivers that know their own pulse spectrum pass
// target[i] = ref * |G(f_i)|² so the signal's legitimate spectral peak is
// never mistaken for interference while a jammer hiding under it still
// gets cut. len(target) must equal len(psd), and threshold must be > 1.
//
// It is the allocating form of ShapedNotchInto.
func ShapedNotchFIR(psd, target []float64, threshold float64) (*FIR, error) {
	taps, err := ShapedNotchInto(nil, make([]complex128, len(psd)), psd, target, threshold)
	if err != nil {
		return nil, err
	}
	return NewFIR(taps), nil
}

// ShapedNotchInto designs ShapedNotchFIR's taps into caller storage, for a
// receiver that designs a fresh notch on every excision hop: spec must
// hold len(psd) bins and receives the magnitude target, then (for a
// power-of-two len(psd)) its inverse DFT; the linear-phase taps are written
// into taps' storage (grown only when its capacity is short) and returned.
// For a power-of-two len(psd) the call allocates nothing once taps has
// capacity.
//
// The design runs per hop on live estimates, so bad input returns an error
// instead of panicking the streaming path.
func ShapedNotchInto(taps, spec []complex128, psd, target []float64, threshold float64) ([]complex128, error) {
	k := len(psd)
	if k == 0 {
		return nil, fmt.Errorf("dsp: notch filter needs a non-empty PSD")
	}
	if len(target) != k {
		return nil, fmt.Errorf("dsp: notch target has %d bins for a %d-bin PSD", len(target), k)
	}
	if len(spec) != k {
		return nil, fmt.Errorf("dsp: notch design scratch has %d bins for a %d-bin PSD", len(spec), k)
	}
	if threshold <= 1 {
		return nil, fmt.Errorf("dsp: notch threshold %v must be > 1", threshold)
	}
	for i, p := range psd {
		m := 1.0
		t := target[i]
		if t <= 0 {
			t = 1e-12
		}
		if p > threshold*t {
			m = math.Sqrt(t / (notchDepth * p))
		}
		spec[i] = complex(m, 0)
	}
	return linearPhaseInto(taps, spec)
}
