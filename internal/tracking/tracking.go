// Package tracking implements the receiver's carrier synchronization, the
// blocks the paper places after the interference-suppression filter (§6.1):
// a Costas loop for carrier phase/frequency recovery on QPSK and a coarse
// FFT-based frequency estimator that pulls large offsets into the Costas
// loop's capture range. The paper's receiver also runs a Gardner timing
// loop there; this reproduction keeps ideal chip timing instead
// (DESIGN.md §2).
//
// The paper deliberately runs these *after* the FIR filter "otherwise the
// jammer may disturb the error correction"; internal/core follows the same
// ordering.
package tracking

import (
	"fmt"
	"math"

	"bhss/internal/dsp"
)

// CoarseCFOInRange estimates a QPSK carrier frequency offset of magnitude
// at most maxCFO (cycles/sample) by raising the signal to the fourth power
// (stripping the modulation) and locating the spectral peak within that
// range; it pulls the offset into the Costas loop's capture range.
// Restricting the search keeps the chip-rate harmonics of a shaped pulse's
// envelope out of the peak search. The FFT runs in buf, which must hold at
// least dsp.NextPow2(len(x)) samples and is overwritten; a receiver keeps it
// across bursts.
func CoarseCFOInRange(buf, x []complex128, maxCFO float64) float64 {
	n := dsp.NextPow2(len(x))
	if n < 4 || maxCFO <= 0 {
		return 0
	}
	buf = buf[:n]
	for i, v := range x {
		v2 := v * v
		buf[i] = v2 * v2
	}
	clear(buf[len(x):])
	dsp.PlanFFT(n).Forward(buf)
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

// Reset returns the loop to its construction state for a new burst: phase,
// frequency and both averages at zero. The loop gains and MaxFreq keep
// their values.
func (c *Costas) Reset() {
	c.phase, c.freq, c.avgMag, c.errEMA = 0, 0, 0, 0
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
// The loop state lives in locals for the whole call. The decision signs
// come from the textbook comparisons but are applied as sign-bit masks, so
// the compiler emits conditional moves: on noise those decisions are coin
// flips a branch would mispredict. The sample magnitude is hypot, a Go copy
// of math.Hypot's assembly. Output and state are bit-identical to the
// branching loop over math.Hypot.
//
//bhss:hotpath
func (c *Costas) Process(x []complex128) {
	maxW := 2 * math.Pi * c.MaxFreq
	alpha, beta := c.alpha, c.beta
	phase, freq, avgMag, errEMA := c.phase, c.freq, c.avgMag, c.errEMA
	for i, v := range x {
		y := v * derotor(phase)
		x[i] = y
		ii, qq := real(y), imag(y)
		// err = ±qq − (±ii): negating a float flips its sign bit, and
		// a − b is exactly a + (−b).
		var negQ, negI uint64
		if !(ii >= 0) {
			negQ = signBit
		}
		if qq >= 0 {
			negI = signBit
		}
		err := math.Float64frombits(math.Float64bits(qq)^negQ) + math.Float64frombits(math.Float64bits(ii)^negI)
		// Normalize by the average amplitude to keep the loop gain
		// signal-level independent without amplifying low-envelope
		// samples.
		mag := hypot(ii, qq)
		if avgMag == 0 {
			avgMag = mag
		} else {
			avgMag += 0.01 * (mag - avgMag)
		}
		if avgMag > 1e-12 {
			err /= avgMag
		}
		if err > 2 {
			err = 2
		} else if err < -2 {
			err = -2
		}
		errEMA += lockRate * (math.Abs(err) - errEMA)
		freq += beta * err
		if freq > maxW {
			freq = maxW
		} else if freq < -maxW {
			freq = -maxW
		}
		phase += freq + alpha*err
		if phase > math.Pi {
			phase -= 2 * math.Pi
		} else if phase < -math.Pi {
			phase += 2 * math.Pi
		}
	}
	c.phase, c.freq, c.avgMag, c.errEMA = phase, freq, avgMag, errEMA
}

const signBit = 1 << 63

// hypot is math.Hypot's amd64 assembly written in Go: max·√(1 +
// (min/max)²) over the magnitudes, +Inf when either input is infinite, NaN
// when either is NaN otherwise, and 0 for two zeros. On amd64 math.Hypot is
// an assembly function, which a Go caller reaches through an ABI wrapper
// that passes the arguments and result through memory; this is a plain
// register-ABI call.
func hypot(p, q float64) float64 {
	p, q = math.Abs(p), math.Abs(q)
	if !(p <= math.MaxFloat64 && q <= math.MaxFloat64) {
		if math.IsInf(p, 1) || math.IsInf(q, 1) {
			return math.Inf(1)
		}
		return math.NaN()
	}
	hi, lo := max(p, q), min(p, q)
	if hi == 0 {
		return 0
	}
	r := lo / hi
	return hi * math.Sqrt(1+r*r)
}

// derotor returns e^(−iφ) as complex(cos, sin) from math.Sincos(−φ). It is
// bit-identical to cmplx.Exp(complex(0, −φ)), whose exp(0) factor is
// exactly 1, and skips that call's Exp.
func derotor(phase float64) complex128 {
	sin, cos := math.Sincos(-phase)
	return complex(cos, sin)
}
