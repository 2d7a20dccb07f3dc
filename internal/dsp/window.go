package dsp

import "math"

// Window identifies a spectral window function used for FIR design and PSD
// estimation.
type Window int

// Supported windows. Hamming is the Welch estimator's; Blackman gives the
// high stop-band attenuation the paper's 70 dB filter spec requires; Kaiser
// allows an explicit attenuation/width trade via its beta parameter.
const (
	Hamming Window = iota
	Blackman
	Kaiser
)

// String returns the window name.
func (w Window) String() string {
	switch w {
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	case Kaiser:
		return "kaiser"
	default:
		return "unknown"
	}
}

// Coefficients returns the n window coefficients. For Kaiser, beta selects
// the shape (beta is ignored by the other windows). n must be positive.
//
//bhss:planphase window design runs at filter-construction time
func (w Window) Coefficients(n int, beta float64) []float64 {
	if n <= 0 {
		panic("dsp: window length must be positive")
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out
	}
	N := float64(n - 1)
	switch w {
	case Hamming:
		for i := range out {
			out[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/N)
		}
	case Blackman:
		for i := range out {
			x := 2 * math.Pi * float64(i) / N
			out[i] = 0.42 - 0.5*math.Cos(x) + 0.08*math.Cos(2*x)
		}
	case Kaiser:
		denom := besselI0(beta)
		for i := range out {
			r := 2*float64(i)/N - 1
			out[i] = besselI0(beta*math.Sqrt(1-r*r)) / denom
		}
	default:
		panic("dsp: unknown window")
	}
	return out
}

// besselI0 is the zeroth-order modified Bessel function of the first kind,
// computed with the standard power series (converges quickly for the beta
// range used in Kaiser windows).
func besselI0(x float64) float64 {
	sum := 1.0
	term := 1.0
	half := x / 2
	for k := 1; k < 64; k++ {
		term *= (half / float64(k)) * (half / float64(k))
		sum += term
		if term < 1e-18*sum {
			break
		}
	}
	return sum
}

// KaiserBeta returns the Kaiser window beta parameter achieving the given
// stop-band attenuation in dB, per Kaiser's empirical formula.
func KaiserBeta(attenDB float64) float64 {
	switch {
	case attenDB > 50:
		return 0.1102 * (attenDB - 8.7)
	case attenDB >= 21:
		return 0.5842*math.Pow(attenDB-21, 0.4) + 0.07886*(attenDB-21)
	default:
		return 0
	}
}

// KaiserOrder estimates the FIR order needed for the given stop-band
// attenuation (dB) and normalized transition width (cycles/sample), per
// Kaiser's formula. The returned order is always at least 8 and odd+1
// adjusted so that order+1 taps give a symmetric (linear phase) filter.
//
//bhss:planphase filter-order selection runs at construction time
func KaiserOrder(attenDB, transitionWidth float64) int {
	if transitionWidth <= 0 {
		panic("dsp: transition width must be positive")
	}
	n := int(math.Ceil((attenDB - 7.95) / (2.285 * 2 * math.Pi * transitionWidth)))
	if n < 8 {
		n = 8
	}
	if n%2 == 1 {
		n++
	}
	return n
}
