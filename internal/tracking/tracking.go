// Package tracking implements the receiver's synchronization loops, the
// blocks the paper places after the interference-suppression filter (§6.1):
// automatic gain control, a Costas loop for carrier phase/frequency
// recovery on QPSK, a Gardner timing-error-detector loop for symbol (chip)
// timing, and a coarse FFT-based frequency estimator used to pull large
// offsets into the Costas loop's capture range.
//
// The paper deliberately runs these *after* the FIR filter "otherwise the
// jammer may disturb the error correction"; internal/core follows the same
// ordering.
package tracking

import (
	"fmt"
	"math"

	"bhss/internal/dsp"
	"bhss/internal/dsp/simd"
)

// AGC is a feedback automatic gain control that drives the average sample
// magnitude toward a target.
type AGC struct {
	target float64
	rate   float64
	gain   float64
}

// NewAGC returns an AGC with the given target RMS amplitude and adaptation
// rate (0 < rate < 1; typical 1e-3..1e-2).
func NewAGC(target, rate float64) (*AGC, error) {
	if target <= 0 {
		return nil, fmt.Errorf("tracking: AGC target %v must be positive", target)
	}
	if rate <= 0 || rate >= 1 {
		return nil, fmt.Errorf("tracking: AGC rate %v out of (0, 1)", rate)
	}
	return &AGC{target: target, rate: rate, gain: 1}, nil
}

// Gain returns the current loop gain.
func (a *AGC) Gain() float64 { return a.gain }

// Process scales x in place, adapting the gain sample by sample.
func (a *AGC) Process(x []complex128) {
	for i, v := range x {
		v *= complex(a.gain, 0)
		x[i] = v
		mag := math.Hypot(real(v), imag(v))
		a.gain += a.rate * (a.target - mag)
		if a.gain < 1e-9 {
			a.gain = 1e-9
		}
	}
}

// CoarseCFO estimates a QPSK carrier frequency offset by raising the signal
// to the fourth power (stripping the modulation) and locating the spectral
// peak, returning the offset in cycles per sample. The estimate is
// ambiguous modulo 1/4 cycle; it is intended to pull the offset into the
// Costas loop's capture range.
func CoarseCFO(x []complex128) float64 {
	n := dsp.NextPow2(len(x))
	if n < 4 {
		return 0
	}
	buf := make([]complex128, n)
	simd.Pow4Into(buf, x)
	dsp.FFT(buf)
	peak := dsp.ArgMaxAbs(buf)
	f := float64(peak) / float64(n)
	if f >= 0.5 {
		f -= 1
	}
	return f / 4
}

// CoarseCFOInRange is CoarseCFO with the search restricted to offsets of
// magnitude at most maxCFO (cycles/sample). Restricting the search keeps
// the chip-rate harmonics of a shaped pulse's envelope out of the peak
// search. It allocates its FFT scratch (coarse acquisition runs once per
// burst, not per hop), so it is deliberately not //bhss:hotpath.
func CoarseCFOInRange(x []complex128, maxCFO float64) float64 {
	n := dsp.NextPow2(len(x))
	if n < 4 || maxCFO <= 0 {
		return 0
	}
	buf := make([]complex128, n)
	simd.Pow4Into(buf, x)
	dsp.FFT(buf)
	limit := int(4 * maxCFO * float64(n))
	if limit < 1 {
		limit = 1
	}
	if limit > n/2 {
		limit = n / 2
	}
	best, bestMag := 0, -1.0
	for k := -limit; k <= limit; k++ {
		idx := (k + n) % n
		v := buf[idx]
		m := real(v)*real(v) + imag(v)*imag(v)
		if m > bestMag {
			bestMag = m
			best = k
		}
	}
	return float64(best) / float64(n) / 4
}

// Costas is a second-order decision-directed Costas loop for QPSK. It
// tracks residual carrier phase and frequency after coarse correction.
type Costas struct {
	phase float64
	freq  float64
	alpha float64
	beta  float64
	// MaxFreq clamps the tracked frequency (cycles/sample).
	MaxFreq float64
	// avgMag is a slow EMA of the sample magnitude used to normalize the
	// loop error. Normalizing by the instantaneous magnitude would blow
	// up the error on the low-amplitude samples of a shaped pulse
	// (half-sine chips pass through zero at every boundary).
	avgMag float64
	// errEMA is a slow EMA of the absolute normalized loop error, the
	// basis of LockQuality: near zero when the loop tracks, near one when
	// the constellation spins.
	errEMA float64
}

// lockRate is the EMA rate of the lock-quality error average: slow enough
// to ride out pulse-shape nulls, fast enough to settle within one hop.
const lockRate = 0.01

// DefaultLockThreshold is the LockQuality value above which the carrier
// loop is considered locked. Calibrated by the measured bands in
// lock_test.go (table in DESIGN.md §11): locked loops settle above ≈0.9
// (≈0.85 under heavy noise) while spinning constellations plateau near
// ≈0.75 — the QPSK decision-directed error of a uniformly rotating
// constellation averages about half the normalized amplitude rather than
// railing, so the usable threshold sits in the narrow band between.
const DefaultLockThreshold = 0.85

// NewCostas returns a Costas loop with the given normalized loop bandwidth
// (typical 0.005..0.05). Damping is fixed at 1/sqrt(2).
func NewCostas(loopBW float64) (*Costas, error) {
	if loopBW <= 0 || loopBW >= 0.5 {
		return nil, fmt.Errorf("tracking: loop bandwidth %v out of (0, 0.5)", loopBW)
	}
	const damping = 0.7071067811865476
	denom := 1 + 2*damping*loopBW + loopBW*loopBW
	c := &Costas{
		alpha:   4 * damping * loopBW / denom,
		beta:    4 * loopBW * loopBW / denom,
		MaxFreq: 0.25,
	}
	return c, nil
}

// Frequency returns the currently tracked frequency offset
// (cycles/sample, after any coarse correction).
func (c *Costas) Frequency() float64 { return c.freq / (2 * math.Pi) }

// SetFrequency preloads the tracked frequency (cycles/sample), e.g. from a
// coarse FFT estimate, so the loop only has to pull in the residual.
func (c *Costas) SetFrequency(cyclesPerSample float64) {
	w := 2 * math.Pi * cyclesPerSample
	max := 2 * math.Pi * c.MaxFreq
	if w > max {
		w = max
	} else if w < -max {
		w = -max
	}
	c.freq = w
}

// Phase returns the current loop phase in radians.
func (c *Costas) Phase() float64 { return c.phase }

// LockQuality maps the loop's recent error activity to [0, 1]: 1 means the
// decision-directed error has been near zero (carrier locked), 0 means the
// error rails (unlocked, constellation spinning). Compare against
// DefaultLockThreshold.
func (c *Costas) LockQuality() float64 {
	q := 1 - c.errEMA/2
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	return q
}

// Process derotates x in place by the tracked carrier, updating the loop
// per sample with the QPSK decision-directed error
// e = sign(I)·Q − sign(Q)·I.
//
//bhss:hotpath
func (c *Costas) Process(x []complex128) {
	maxW := 2 * math.Pi * c.MaxFreq
	for i, v := range x {
		y := v * derotor(c.phase)
		x[i] = y
		ii, qq := real(y), imag(y)
		var err float64
		if ii >= 0 {
			err = qq
		} else {
			err = -qq
		}
		if qq >= 0 {
			err -= ii
		} else {
			err += ii
		}
		// Normalize by the average amplitude to keep the loop gain
		// signal-level independent without amplifying low-envelope
		// samples.
		mag := math.Hypot(ii, qq)
		if c.avgMag == 0 {
			c.avgMag = mag
		} else {
			c.avgMag += 0.01 * (mag - c.avgMag)
		}
		if c.avgMag > 1e-12 {
			err /= c.avgMag
		}
		if err > 2 {
			err = 2
		} else if err < -2 {
			err = -2
		}
		if err >= 0 {
			c.errEMA += lockRate * (err - c.errEMA)
		} else {
			c.errEMA += lockRate * (-err - c.errEMA)
		}
		c.freq += c.beta * err
		if c.freq > maxW {
			c.freq = maxW
		} else if c.freq < -maxW {
			c.freq = -maxW
		}
		c.phase += c.freq + c.alpha*err
		if c.phase > math.Pi {
			c.phase -= 2 * math.Pi
		} else if c.phase < -math.Pi {
			c.phase += 2 * math.Pi
		}
	}
}

// derotor returns e^(−iφ) as complex(cos, sin) from math.Sincos(−φ). It is
// bit-identical to cmplx.Exp(complex(0, −φ)), whose exp(0) factor is
// exactly 1, and skips that call's Exp.
func derotor(phase float64) complex128 {
	sin, cos := math.Sincos(-phase)
	return complex(cos, sin)
}

// Gardner is a symbol-timing recovery loop using the Gardner timing error
// detector with linear interpolation. It consumes samples at sps samples
// per symbol (chip) and emits one interpolated sample per symbol.
type Gardner struct {
	sps   float64
	gainP float64
	gainI float64

	pos      float64 // fractional read position of the next strobe
	period   float64 // current symbol period estimate in samples
	prevSymb complex128
}

// NewGardner returns a timing recovery loop for the given nominal samples
// per symbol (>= 2) and loop bandwidth (typical 0.01).
func NewGardner(sps float64, loopBW float64) (*Gardner, error) {
	if sps < 2 {
		return nil, fmt.Errorf("tracking: Gardner needs sps >= 2, got %v", sps)
	}
	if loopBW <= 0 || loopBW >= 0.5 {
		return nil, fmt.Errorf("tracking: loop bandwidth %v out of (0, 0.5)", loopBW)
	}
	const damping = 1.0
	denom := 1 + 2*damping*loopBW + loopBW*loopBW
	return &Gardner{
		sps:    sps,
		gainP:  4 * damping * loopBW / denom,
		gainI:  4 * loopBW * loopBW / denom,
		pos:    sps / 2, // start mid-symbol
		period: sps,
	}, nil
}

// Period returns the current symbol period estimate in samples.
func (g *Gardner) Period() float64 { return g.period }

// interp linearly interpolates x at fractional index t.
func interp(x []complex128, t float64) complex128 {
	i := int(t)
	if i < 0 {
		return x[0]
	}
	if i >= len(x)-1 {
		return x[len(x)-1]
	}
	frac := t - float64(i)
	return x[i]*complex(1-frac, 0) + x[i+1]*complex(frac, 0)
}

// Process consumes one burst of samples and returns the recovered
// one-per-symbol strobes. Create a fresh Gardner per burst: the loop locks
// from its initial mid-symbol guess within a few tens of symbols.
func (g *Gardner) Process(x []complex128) []complex128 {
	var out []complex128
	for g.pos+g.period < float64(len(x)-1) {
		mid := interp(x, g.pos+g.period/2)
		next := interp(x, g.pos+g.period)
		// Gardner TED: raw = Re{(y[k] − y[k−1]) · conj(y[k−1/2])} is
		// negative when sampling early, so the loop corrects with −raw.
		diff := next - g.prevSymb
		e := -real(diff * complex(real(mid), -imag(mid)))
		// Normalize to keep loop gain signal-level independent.
		p := real(next)*real(next) + imag(next)*imag(next)
		if p > 1e-12 {
			e /= math.Sqrt(p)
		}
		if e > 1 {
			e = 1
		} else if e < -1 {
			e = -1
		}
		g.period += g.gainI * e
		// Clamp period drift to ±10%.
		if g.period > 1.1*g.sps {
			g.period = 1.1 * g.sps
		} else if g.period < 0.9*g.sps {
			g.period = 0.9 * g.sps
		}
		g.pos += g.period + g.gainP*e
		out = append(out, next)
		g.prevSymb = next
	}
	return out
}
