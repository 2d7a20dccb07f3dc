package dsp

import (
	"fmt"

	"bhss/internal/dsp/simd"
)

// OverlapSave is a fast convolver for one fixed tap set: the taps are
// transformed to the frequency domain once at construction, and inputs of
// any length are then streamed through fixed-size FFT blocks (the classic
// overlap-save method). Each block costs two planned power-of-two FFTs, so
// steady-state filtering performs no trigonometry and — with a caller-
// provided output buffer — no allocation.
//
// A single OverlapSave is not safe for concurrent use (it owns block
// scratch); build one per goroutine or guard it externally. The one-shot
// Apply* methods do not disturb the streaming state carried by Process.
type OverlapSave struct {
	k      int          // tap count
	fftLen int          // FFT block size N
	step   int          // fresh input samples consumed per block: N-k+1
	hFT    []complex128 // FFT of the taps with 1/N folded in, length N
	plan   *FFTPlan

	//bhss:scratch
	block []complex128 // per-block scratch, length N
	//bhss:scratch
	full []complex128 // one-shot scratch for ApplySame
	//bhss:scratch
	hist []complex128 // streaming delay line, k-1 samples
}

// NewOverlapSave returns a convolver for the given taps with an
// automatically chosen FFT block size (~8x the tap count, the usual
// throughput sweet spot for overlap-save). The taps slice is copied into the
// frequency domain and not retained.
func NewOverlapSave(taps []complex128) *OverlapSave {
	k := len(taps)
	fftLen := NextPow2(8 * k)
	if fftLen < 2*k {
		fftLen = NextPow2(2 * k)
	}
	o, err := NewOverlapSaveSize(taps, fftLen)
	if err != nil {
		panic(err) // unreachable: the computed size is always valid
	}
	return o
}

// NewOverlapSaveSize returns a convolver with an explicit FFT block size,
// which must be a power of two >= 2*len(taps) (so every block produces at
// least as many outputs as it re-reads overlap).
func NewOverlapSaveSize(taps []complex128, fftLen int) (*OverlapSave, error) {
	k := len(taps)
	if k == 0 {
		return nil, fmt.Errorf("dsp: overlap-save needs at least one tap")
	}
	if fftLen&(fftLen-1) != 0 || fftLen < 2*k {
		return nil, fmt.Errorf("dsp: overlap-save FFT size %d must be a power of two >= 2*%d taps", fftLen, k)
	}
	o := &OverlapSave{
		k:      k,
		fftLen: fftLen,
		step:   fftLen - k + 1,
		hFT:    make([]complex128, fftLen),
		plan:   PlanFFT(fftLen),
		block:  make([]complex128, fftLen),
		hist:   make([]complex128, k-1),
	}
	copy(o.hFT, taps)
	o.plan.Forward(o.hFT)
	// Folding the inverse transform's 1/N into H saves a full output pass
	// per block.
	invN := complex(1/float64(fftLen), 0)
	for i := range o.hFT {
		o.hFT[i] *= invN
	}
	return o, nil
}

// Len returns the tap count, BlockSize the FFT block length.
func (o *OverlapSave) Len() int       { return o.k }
func (o *OverlapSave) BlockSize() int { return o.fftLen }

// convolveBlock runs one overlap-save block over o.block in place: forward
// FFT, multiply by the pre-transformed taps, inverse FFT. Outputs
// o.block[k-1:] are valid linear-convolution samples.
func (o *OverlapSave) convolveBlock() {
	o.plan.Forward(o.block)
	simd.CMulTo(o.block, o.hFT)
	o.plan.inverseUnscaled(o.block)
}

// ApplyFull appends the full linear convolution of x with the taps
// (len(x)+k-1 samples, matching Convolve/ConvolveFFT) to dst and returns the
// extended slice. Passing a dst with sufficient capacity makes the call
// allocation-free.
//
//bhss:hotpath
func (o *OverlapSave) ApplyFull(dst, x []complex128) []complex128 {
	if len(x) == 0 {
		return dst
	}
	total := len(x) + o.k - 1
	//bhss:allow(hotpath) amortized growth: growComplex reuses dst's storage once warm
	dst = growComplex(dst, total)
	out := dst[len(dst)-total:]
	// Output position pos needs input window x[pos-(k-1) .. pos+step-1];
	// samples outside x are zero (leading warm-up and trailing flush).
	for pos := 0; pos < total; pos += o.step {
		lo := pos - (o.k - 1)
		for i := range o.block {
			j := lo + i
			if j >= 0 && j < len(x) {
				o.block[i] = x[j]
			} else {
				o.block[i] = 0
			}
		}
		o.convolveBlock()
		n := total - pos
		if n > o.step {
			n = o.step
		}
		copy(out[pos:pos+n], o.block[o.k-1:o.k-1+n])
	}
	return dst
}

// ApplySame appends the length-len(x) "same" part of the convolution to dst
// (group delay (k-1)/2 removed, matching FIR.Apply) and returns the extended
// slice.
//
//bhss:hotpath
func (o *OverlapSave) ApplySame(dst, x []complex128) []complex128 {
	if len(x) == 0 {
		return dst
	}
	o.full = o.ApplyFull(o.full[:0], x)
	start := (o.k - 1) / 2
	return append(dst, o.full[start:start+len(x)]...)
}

// Process streams x through the filter, appending len(x) output samples to
// dst: out[i] = sum_t taps[t]*x[i-t] with history carried across calls,
// exactly like FIR.Process but at FFT speed. Reset clears the history.
//
//bhss:hotpath
func (o *OverlapSave) Process(dst, x []complex128) []complex128 {
	//bhss:allow(hotpath) amortized growth: growComplex reuses dst's storage once warm
	dst = growComplex(dst, len(x))
	out := dst[len(dst)-len(x):]
	pos := 0
	for pos < len(x) {
		n := len(x) - pos
		if n > o.step {
			n = o.step
		}
		copy(o.block, o.hist)
		copy(o.block[o.k-1:], x[pos:pos+n])
		for i := o.k - 1 + n; i < o.fftLen; i++ {
			o.block[i] = 0
		}
		// Carry the last k-1 *input* samples into the next block before
		// o.block is overwritten by the transform.
		if n >= o.k-1 {
			copy(o.hist, x[pos+n-(o.k-1):pos+n])
		} else {
			copy(o.hist, o.hist[n:])
			copy(o.hist[len(o.hist)-n:], x[pos:pos+n])
		}
		o.convolveBlock()
		copy(out[pos:pos+n], o.block[o.k-1:o.k-1+n])
		pos += n
	}
	return dst
}

// Reset clears the streaming delay line used by Process.
func (o *OverlapSave) Reset() {
	for i := range o.hist {
		o.hist[i] = 0
	}
}

// growComplex extends s by n elements (reallocating only when capacity is
// exhausted) and returns the extended slice; the new elements are not
// cleared — callers overwrite them.
func growComplex(s []complex128, n int) []complex128 {
	if cap(s)-len(s) >= n {
		return s[:len(s)+n]
	}
	out := make([]complex128, len(s)+n, (len(s)+n)*2)
	copy(out, s)
	return out
}
