package dsp

import (
	"fmt"
	"math"
	"math/cmplx"

	"bhss/internal/dsp/simd"
)

// FIR is a finite impulse response filter with complex taps. Filtering is
// available in three forms: streaming (Process, with state carried across
// calls), one-shot direct convolution (Apply) and one-shot FFT overlap-save
// convolution (ApplyFast) for long signals.
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

// Apply convolves x with the taps and returns the "same" central part of the
// convolution: output has len(x) samples and is aligned so that a symmetric
// (linear-phase) filter introduces no net shift. It does not touch streaming
// state.
func (f *FIR) Apply(x []complex128) []complex128 {
	full := convolveDirect(x, f.taps)
	return sameSlice(full, len(x), len(f.taps))
}

// ApplyFast is Apply using FFT overlap-save convolution; results agree with
// Apply to floating-point accuracy. Prefer it when len(x)*len(taps) is large.
// The first call builds the filter's frequency-domain transform; subsequent
// calls reuse it, allocating only the result slice.
func (f *FIR) ApplyFast(x []complex128) []complex128 {
	return f.Convolver().ApplySame(nil, x)
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

// sameSlice extracts the length-n "same" part from a full convolution with a
// k-tap kernel (group delay (k-1)/2 removed).
func sameSlice(full []complex128, n, k int) []complex128 {
	start := (k - 1) / 2
	out := make([]complex128, n)
	copy(out, full[start:start+n])
	return out
}

// convolveDirect returns the full linear convolution of x and h
// (length len(x)+len(h)-1).
func convolveDirect(x, h []complex128) []complex128 {
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

// Convolve returns the full linear convolution of x and h using the direct
// method. See ConvolveFFT for the fast path.
func Convolve(x, h []complex128) []complex128 {
	return convolveDirect(x, h)
}

// ConvolveFFT returns the full linear convolution of x and h via a single
// zero-padded FFT. For very long x relative to h this is still near-optimal
// and much simpler than block processing.
func ConvolveFFT(x, h []complex128) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	n := len(x) + len(h) - 1
	m := NextPow2(n)
	a := make([]complex128, m)
	b := make([]complex128, m)
	copy(a, x)
	copy(b, h)
	FFT(a)
	FFT(b)
	for i := range a {
		a[i] *= b[i]
	}
	IFFT(a)
	return a[:n]
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

// GainAt returns |H(e^{j2πf})|^2 at normalized frequency f (cycles/sample)
// evaluated exactly from the taps.
func (f *FIR) GainAt(freq float64) float64 {
	var acc complex128
	for n, t := range f.taps {
		ang := -2 * math.Pi * freq * float64(n)
		acc += t * cmplx.Exp(complex(0, ang))
	}
	return real(acc)*real(acc) + imag(acc)*imag(acc)
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
	mag := make([]float64, k)
	for i, p := range psd {
		if p < clamp {
			p = clamp
		}
		mag[i] = 1 / math.Sqrt(p)
	}
	f, err := linearPhaseFromMagnitude(mag)
	if err != nil {
		return nil, err
	}
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

// linearPhaseFromMagnitude builds an exactly linear-phase FIR whose
// magnitude response approximates the given K-point target (un-shifted bin
// order). The target may be asymmetric in ±f (a one-sided jammer notch), so
// the taps are complex but Hermitian around the center (h[c+d] =
// conj(h[c-d])), which keeps the frequency response real — zero phase up to
// an integer delay. The zero-phase impulse response from the inverse DFT is
// rotated so its peak sits at the integer center c = (L-1)/2 with L = K-1
// (odd) taps — the alignment Apply/ApplyFast compensate exactly. (A direct
// e^{-jπ(K-1)k/K} phase term as written in eq. (3) puts the delay at the
// half-sample (K-1)/2, which an integer-aligned convolution cannot undo
// without distortion.)
func linearPhaseFromMagnitude(mag []float64) (*FIR, error) {
	k := len(mag)
	if k < 3 {
		return nil, fmt.Errorf("dsp: magnitude response needs >= 3 bins, got %d", k)
	}
	h := make([]complex128, k)
	for i, m := range mag {
		h[i] = complex(m, 0)
	}
	h0 := IFFT(h) // zero-phase: h0[-n] = conj(h0[n]) for a real target
	L := k - 1
	if L%2 == 0 {
		L--
	}
	c := (L - 1) / 2
	taps := make([]complex128, L)
	for i := range taps {
		idx := ((i-c)%k + k) % k
		taps[i] = h0[idx]
	}
	return NewFIR(taps), nil
}

// SmoothPSD returns a circularly smoothed copy of a PSD using a moving
// average of the given width (forced odd, >= 1). Averaged-periodogram
// estimates from short captures scatter heavily per bin; smoothing before
// threshold tests and filter design prevents the whitening filter from
// amplifying estimation noise.
func SmoothPSD(psd []float64, width int) []float64 {
	out := make([]float64, len(psd))
	SmoothPSDInto(out, psd, width)
	return out
}

// SmoothPSDInto is SmoothPSD writing into dst, which must have the same
// length as psd and must not alias it. The circular moving average is
// computed with a running window sum, so the cost is O(n + width) rather
// than O(n*width).
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
		// Wrap-around window seed: the indices fold mod n, so the reads are
		// not contiguous and SumFloats does not apply; this runs once per
		// call over `width` bins, not per bin.
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

// NotchFIR designs a robust excision filter from a PSD estimate: bins whose
// power exceeds threshold times the reference level are attenuated down to
// the reference (|H| = sqrt(ref/psd)); all other bins pass with unit gain.
// Like the eq. (3) whitening filter it suppresses exactly the spectrum the
// jammer occupies, but unlike raw reciprocal whitening it leaves the rest
// untouched, which keeps estimation noise from distorting the desired
// signal.
//
// ref anchors "normal" power — pass the median of the bins the *signal*
// occupies. A non-positive ref falls back to the global PSD median, which
// is only correct when the signal fills most of the band: for a narrow
// signal the global median is the noise floor and the notch would flatten
// the whole signal band into it. threshold must be > 1.
//
// Like WhiteningFIR this designs from live per-hop estimates, so bad input
// returns an error instead of panicking the streaming path.
func NotchFIR(psd []float64, threshold, ref float64) (*FIR, error) {
	k := len(psd)
	if k == 0 {
		return nil, fmt.Errorf("dsp: notch filter needs a non-empty PSD")
	}
	if threshold <= 1 {
		return nil, fmt.Errorf("dsp: notch threshold %v must be > 1", threshold)
	}
	if ref <= 0 {
		ref = MedianFloats(psd)
	}
	if ref <= 0 {
		ref = 1e-12
	}
	// Jammed bins are pushed a factor notchDepth below the reference:
	// flooring them exactly at the signal level would leave a residual
	// strong enough to steer the receiver's carrier loop when the jammer
	// sits at the band center.
	mag := make([]float64, k)
	for i, p := range psd {
		mag[i] = 1
		if p > threshold*ref {
			mag[i] = math.Sqrt(ref / (notchDepth * p))
		}
	}
	return linearPhaseFromMagnitude(mag)
}

// notchDepth is how far below the target level notched bins are pushed.
const notchDepth = 16

// ShapedNotchFIR generalizes NotchFIR to a frequency-dependent target: bin
// i is acceptable up to threshold*target[i] and notched down to
// target[i]/notchDepth beyond that. Receivers that know their own pulse
// spectrum pass target[i] = ref * |G(f_i)|² so the signal's legitimate
// spectral peak is never mistaken for interference while a jammer hiding
// under it still gets cut. len(target) must equal len(psd).
func ShapedNotchFIR(psd, target []float64, threshold float64) (*FIR, error) {
	k := len(psd)
	if k == 0 {
		return nil, fmt.Errorf("dsp: notch filter needs a non-empty PSD")
	}
	if len(target) != k {
		return nil, fmt.Errorf("dsp: notch target has %d bins for a %d-bin PSD", len(target), k)
	}
	if threshold <= 1 {
		return nil, fmt.Errorf("dsp: notch threshold %v must be > 1", threshold)
	}
	mag := make([]float64, k)
	for i, p := range psd {
		mag[i] = 1
		t := target[i]
		if t <= 0 {
			t = 1e-12
		}
		if p > threshold*t {
			mag[i] = math.Sqrt(t / (notchDepth * p))
		}
	}
	return linearPhaseFromMagnitude(mag)
}
