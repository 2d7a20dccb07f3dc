// Package theory implements the analytical results of §5 of the paper:
// the correlator output SNR with an interference-suppression filter
// (eq. (6)), the no-filter reference (eq. (7)), the SNR improvement factor γ
// (eq. (8)) and its ideal-filter upper bounds for narrow-band (eqs. (9)–(11))
// and wide-band (eq. (12)) jammers, the Gaussian-approximation bit error
// rate (eq. (16)) and the packet throughput model (eqs. (17)–(18)).
//
// Conventions (documented in DESIGN.md §6): powers are relative to the
// unit-power chip sequence; the per-chip noise variance derives from Eb/N0
// through the processing gain as σ²ₙ = L/(Eb/N0), so the jam-free correlator
// SNR equals Eb/N0.
package theory

import (
	"fmt"
	"math"
)

// CorrelatorSNR evaluates eq. (6): the SNR at the output of the PN
// correlator for a receiver with suppression filter taps h (h[0] must be
// normalized to 1 — the equation's desired-signal term assumes it), a
// jammer with autocorrelation function rhoJ (rhoJ(0) = total jammer power)
// and white noise variance noiseVar. L is the linear processing gain
// (chips per bit).
func CorrelatorSNR(L float64, h []float64, rhoJ func(lag int) float64, noiseVar float64) float64 {
	k := len(h)
	if k == 0 {
		return 0
	}
	var selfNoise float64
	for l := 1; l < k; l++ {
		selfNoise += h[l] * h[l]
	}
	var residual float64
	for l := 0; l < k; l++ {
		for m := 0; m < k; m++ {
			residual += h[l] * h[m] * rhoJ(l-m)
		}
	}
	var whiteNoise float64
	for l := 0; l < k; l++ {
		whiteNoise += h[l] * h[l]
	}
	den := selfNoise + residual + noiseVar*whiteNoise
	if den <= 0 {
		return math.Inf(1)
	}
	return L / den
}

// SNRNoFilter evaluates eq. (7): the correlator SNR without a suppression
// filter, where jammerPower is ρⱼ(0).
func SNRNoFilter(L, jammerPower, noiseVar float64) float64 {
	den := jammerPower + noiseVar
	if den <= 0 {
		return math.Inf(1)
	}
	return L / den
}

// ImprovementFactor evaluates eq. (8): γ, the ratio of the filtered to the
// unfiltered output SNR. It is independent of the processing gain.
func ImprovementFactor(h []float64, rhoJ func(lag int) float64, noiseVar float64) float64 {
	// γ = SNR(6)/SNR(7) with the L factors cancelling.
	num := rhoJ(0) + noiseVar
	snr6 := CorrelatorSNR(1, h, rhoJ, noiseVar)
	return snr6 * num
}

// BandlimitedAutocorr returns the autocorrelation function of a complex
// baseband white jammer of total power rho0 band-limited to the two-sided
// bandwidth bw (normalized frequency, cycles/sample):
// ρ(m) = rho0 · sinc(π·bw·m).
func BandlimitedAutocorr(rho0, bw float64) func(lag int) float64 {
	return func(lag int) float64 {
		x := bw * float64(lag)
		if x == 0 {
			return rho0
		}
		px := math.Pi * x
		return rho0 * math.Sin(px) / px
	}
}

// GammaNarrowband evaluates the ideal excision-filter bound of eq. (11) for
// a narrow-band jammer (bj <= bp): the jammer is removed entirely at the
// cost of self-noise proportional to the excised fraction. Beyond the
// eq. (10) threshold the excision filter would hurt, so γ clamps to 1.
//
//bhss:planphase closed-form analysis, not a streaming path
func GammaNarrowband(rho0, noiseVar, bp, bj float64) float64 {
	if bp <= 0 || bj < 0 {
		panic(fmt.Sprintf("theory: invalid bandwidths bp=%v bj=%v", bp, bj))
	}
	if rho0 <= 1 {
		return 1 // a jammer weaker than the signal never justifies excision
	}
	threshold := (rho0 - 1) / (rho0 + noiseVar) * bp
	if bj > threshold {
		return 1
	}
	gamma := (rho0 + noiseVar) / (bp / (bp - bj) * (1 + noiseVar))
	if gamma < 1 {
		return 1
	}
	return gamma
}

// GammaWideband evaluates eq. (12): the ideal low-pass bound for a
// wide-band jammer (bj >= bp). Only the fraction bp/bj of the jammer's
// power falls inside the retained band.
//
//bhss:planphase closed-form analysis, not a streaming path
func GammaWideband(rho0, noiseVar, bp, bj float64) float64 {
	if bp <= 0 || bj <= 0 {
		panic(fmt.Sprintf("theory: invalid bandwidths bp=%v bj=%v", bp, bj))
	}
	return (rho0 + noiseVar) / (bp/bj*rho0 + noiseVar)
}

// GammaBound returns the ideal-filter SNR improvement upper bound for any
// bandwidth offset, selecting the low-pass branch for bj > bp and the
// excision branch otherwise (Figure 7 plots this bound).
func GammaBound(rho0, noiseVar, bp, bj float64) float64 {
	if bj > bp {
		return GammaWideband(rho0, noiseVar, bp, bj)
	}
	return GammaNarrowband(rho0, noiseVar, bp, bj)
}

// BitErrorRate evaluates eq. (16): Pb = ½·erfc(√(SNR/2)) under the
// Gaussian decision-variable approximation.
func BitErrorRate(snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	return 0.5 * math.Erfc(math.Sqrt(snr/2))
}

// PacketErrorRate evaluates eq. (18): the probability that a packet of
// nBits i.i.d. bits contains at least one error.
func PacketErrorRate(pb float64, nBits int) float64 {
	if pb <= 0 {
		return 0
	}
	if pb >= 1 {
		return 1
	}
	// 1 - (1-pb)^n computed stably.
	return -math.Expm1(float64(nBits) * math.Log1p(-pb))
}

// NoiseVarFromEbNo converts a per-bit Eb/N0 (linear) into the per-chip
// noise variance for processing gain L: σ²ₙ = L/(Eb/N0). With this scaling
// the jam-free eq. (7) SNR equals Eb/N0.
func NoiseVarFromEbNo(L, ebNoLinear float64) float64 {
	if ebNoLinear <= 0 {
		return math.Inf(1)
	}
	return L / ebNoLinear
}

// Averaging selects how per-hop statistics combine into a link bit error
// rate for a hopping system.
type Averaging int

const (
	// AverageVariance pools the per-hop noise variances into one Gaussian
	// decision variable (the paper's eq. (15) assumption: U is Gaussian
	// "with variance equal to the total noise ... at the output of the
	// demodulator"), i.e. SNR_eff is the harmonic mean of per-hop SNRs.
	AverageVariance Averaging = iota
	// AverageBER arithmetically averages the per-hop bit error rates,
	// the conservative alternative.
	AverageBER
)

// HopModel describes the analytic BHSS link of §5.3: a hopping transmitter
// with ideal filters at the receiver facing a jammer of fixed or hopping
// bandwidth.
type HopModel struct {
	// Bandwidths and Probs define the hop distribution. Bandwidths are
	// relative (only ratios matter); Probs must sum to 1.
	Bandwidths []float64
	Probs      []float64
	// Rho0 is the total jammer power ρⱼ(0) relative to the unit chip
	// power (100 for the figures' −20 dB signal-to-jamming ratio).
	Rho0 float64
	// L is the linear processing gain (100 for the figures' 20 dB).
	L float64
	// Mode selects the averaging of per-hop statistics.
	Mode Averaging
}

// UniformLogHops returns n log-spaced bandwidths spanning the given range
// (max/min = rng) with uniform probabilities, normalized so max = 1.
// The §5 figures hop "randomly among a bandwidth range of 100".
//
//bhss:planphase hop-plan construction
func UniformLogHops(rng float64, n int) ([]float64, []float64) {
	if n < 1 || rng <= 1 {
		panic("theory: need n >= 1 and range > 1")
	}
	bws := make([]float64, n)
	probs := make([]float64, n)
	for i := range bws {
		if n == 1 {
			bws[i] = 1
		} else {
			bws[i] = math.Pow(rng, -float64(i)/float64(n-1))
		}
		probs[i] = 1 / float64(n)
	}
	return bws, probs
}

// hopSNRs returns the per-hop output SNRs against a jammer of bandwidth bj
// (same relative units as the hop bandwidths) at per-chip noise noiseVar.
func (m HopModel) hopSNRs(bj, noiseVar float64) []float64 {
	base := SNRNoFilter(m.L, m.Rho0, noiseVar)
	out := make([]float64, len(m.Bandwidths))
	for i, bp := range m.Bandwidths {
		out[i] = GammaBound(m.Rho0, noiseVar, bp, bj) * base
	}
	return out
}

// BERFixedJammer returns the link BER against a fixed-bandwidth jammer at
// the given per-bit Eb/N0 (linear).
func (m HopModel) BERFixedJammer(bj, ebNo float64) float64 {
	noiseVar := NoiseVarFromEbNo(m.L, ebNo)
	snrs := m.hopSNRs(bj, noiseVar)
	switch m.Mode {
	case AverageBER:
		var ber float64
		for i, snr := range snrs {
			ber += m.Probs[i] * BitErrorRate(snr)
		}
		return ber
	default: // AverageVariance
		var invSNR float64
		for i, snr := range snrs {
			if math.IsInf(snr, 1) {
				continue
			}
			invSNR += m.Probs[i] / snr
		}
		if invSNR == 0 {
			return 0
		}
		return BitErrorRate(1 / invSNR)
	}
}

// BERRandomJammer returns the link BER against a jammer hopping over the
// given bandwidths with the given probabilities (both transmitter and
// jammer re-draw every hop, independently).
func (m HopModel) BERRandomJammer(jammerBWs, jammerProbs []float64, ebNo float64) float64 {
	noiseVar := NoiseVarFromEbNo(m.L, ebNo)
	base := SNRNoFilter(m.L, m.Rho0, noiseVar)
	switch m.Mode {
	case AverageBER:
		var ber float64
		for j, bj := range jammerBWs {
			for i, bp := range m.Bandwidths {
				snr := GammaBound(m.Rho0, noiseVar, bp, bj) * base
				ber += m.Probs[i] * jammerProbs[j] * BitErrorRate(snr)
			}
		}
		return ber
	default:
		var invSNR float64
		for j, bj := range jammerBWs {
			for i, bp := range m.Bandwidths {
				snr := GammaBound(m.Rho0, noiseVar, bp, bj) * base
				if math.IsInf(snr, 1) {
					continue
				}
				invSNR += m.Probs[i] * jammerProbs[j] / snr
			}
		}
		if invSNR == 0 {
			return 0
		}
		return BitErrorRate(1 / invSNR)
	}
}

// FixedBWBER returns the conventional DSSS/FHSS reference BER (eq. (7) +
// eq. (16)): the jammer matches the signal bandwidth, no pre-filtering is
// possible, and the full jammer power survives despreading.
func FixedBWBER(L, rho0, ebNo float64) float64 {
	noiseVar := NoiseVarFromEbNo(L, ebNo)
	return BitErrorRate(SNRNoFilter(L, rho0, noiseVar))
}

// ThroughputFixedJammer returns the normalized BHSS packet throughput of
// §5.4 against a fixed-bandwidth jammer: packets of nBits are scheduled
// within hops, each hop's share of the data rate is proportional to
// probability × bandwidth, and a hop's packets survive with its own packet
// error rate.
func (m HopModel) ThroughputFixedJammer(bj, ebNo float64, nBits int) float64 {
	noiseVar := NoiseVarFromEbNo(m.L, ebNo)
	snrs := m.hopSNRs(bj, noiseVar)
	var rateSum, tput float64
	for i, bp := range m.Bandwidths {
		rateSum += m.Probs[i] * bp
	}
	for i, bp := range m.Bandwidths {
		share := m.Probs[i] * bp / rateSum
		pb := BitErrorRate(snrs[i])
		tput += share * (1 - PacketErrorRate(pb, nBits))
	}
	return tput
}

// ThroughputRandomJammer is ThroughputFixedJammer averaged over a hopping
// jammer's bandwidth distribution.
func (m HopModel) ThroughputRandomJammer(jammerBWs, jammerProbs []float64, ebNo float64, nBits int) float64 {
	var tput float64
	for j, bj := range jammerBWs {
		tput += jammerProbs[j] * m.ThroughputFixedJammer(bj, ebNo, nBits)
	}
	return tput
}

// FixedBWThroughput is the conventional DSSS/FHSS normalized throughput
// under the matched jammer: 1 − Pp at the eq. (7) SNR.
func FixedBWThroughput(L, rho0, ebNo float64, nBits int) float64 {
	pb := FixedBWBER(L, rho0, ebNo)
	return 1 - PacketErrorRate(pb, nBits)
}
