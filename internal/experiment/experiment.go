// Package experiment reproduces the paper's evaluation: it provides the
// measurement primitives (packet-loss rate at a given SNR, the minimal SNR
// reaching the 50% packet-loss threshold, and the power advantage defined
// in §6.3/§6.4) plus one driver per table and figure. The theoretical
// figures (7–11) evaluate internal/theory; the measured figures (13, 14)
// and tables (1, 2) drive the full sample-level transmitter/channel/jammer/
// receiver pipeline, exactly as the SDR testbed did but on the simulated
// AWGN medium described in DESIGN.md.
package experiment

import (
	"fmt"
	"math"

	"bhss/internal/channel"
	"bhss/internal/core"
	"bhss/internal/dsp"
	"bhss/internal/impair"
	"bhss/internal/jammer"
	"bhss/internal/obs"
	"bhss/internal/prng"
	"bhss/internal/stats"
)

// Scale bundles the knobs that trade fidelity for runtime. The paper
// averaged 10,000 packets per point on real hardware; the default scale
// uses far fewer, which shifts individual dB readings by a little scatter
// but preserves every comparison the paper draws.
type Scale struct {
	// Frames per packet-loss measurement point.
	Frames int
	// PayloadBytes per frame.
	PayloadBytes int
	// SNRLoDB and SNRHiDB bound the minimal-SNR search; SNRTolDB is the
	// bisection resolution.
	SNRLoDB, SNRHiDB, SNRTolDB float64
	// JammerPower is the jammer's power relative to the unit-power chip
	// sequence (100 = the paper's −20 dB signal-to-jamming ratio).
	JammerPower float64
	// NoiseVar is the receiver noise floor per sample.
	NoiseVar float64
	// FilterTaps bounds the receiver's suppression filters.
	FilterTaps int
	// Seed makes the whole experiment deterministic.
	Seed uint64
	// Impair is an RF front-end impairment spec (impair.ParseSpec grammar,
	// e.g. "cfo=2e3,ppm=20,phnoise=-80,quant=8") applied to the composite
	// received signal — after gain, jammer and noise — of every trial
	// built from this scale, so the front end distorts signal and jammer
	// alike, as the testbed's shared receiver chain did. Empty keeps the
	// medium pristine; the headline figures (Fig13's 15.47 dB) are pinned
	// with it empty.
	Impair string
	// Obs, when non-nil, receives metrics from every link the experiment
	// builds (a single pipeline shared across worker goroutines — recording
	// is atomic). It never influences results: seeds, decisions and samples
	// are identical with Obs set or nil.
	Obs *obs.Pipeline
}

// QuickScale returns the reduced scale used by the benchmarks: enough
// frames for stable 50% threshold estimates, coarse SNR resolution.
func QuickScale() Scale {
	return Scale{
		Frames:       24,
		PayloadBytes: 8,
		SNRLoDB:      -5,
		SNRHiDB:      50,
		SNRTolDB:     1.5,
		JammerPower:  100,
		NoiseVar:     0.01,
		FilterTaps:   1025,
		Seed:         1,
	}
}

// FullScale returns a configuration closer to the paper's averaging depth.
// Expect runtimes in tens of minutes.
func FullScale() Scale {
	s := QuickScale()
	s.Frames = 200
	s.SNRTolDB = 0.75
	s.FilterTaps = 2049
	return s
}

// NewJammerFunc builds a fresh jammer for one measurement point; seed
// varies per point so jamming noise is independent across points.
type NewJammerFunc func(seed uint64) (jammer.Source, error)

// FixedJammer returns a NewJammerFunc emitting band-limited noise of the
// given two-sided normalized bandwidth and power.
func FixedJammer(bw, power float64) NewJammerFunc {
	return func(seed uint64) (jammer.Source, error) {
		return jammer.NewBandlimited(bw, power, seed)
	}
}

// Trial describes one link-versus-jammer measurement setup.
type Trial struct {
	// Config is the BHSS link configuration (both ends).
	Config core.Config
	// NewJammer creates the interferer; nil runs unjammed.
	NewJammer NewJammerFunc
	// RandomPhase applies an unknown uniform carrier phase per frame
	// (free-running oscillators, as in the testbed). Requires the
	// receiver's tracking loops or PreambleSync to matter.
	RandomPhase bool
	// CFO applies a quasi-static carrier frequency offset of this
	// magnitude in cycles/sample (sign randomized per frame) — the
	// oscillator mismatch between unsynchronized SDRs. The receiver's
	// carrier loop must then actively track; strong unsuppressed jamming
	// collapses the loop's decision-directed gain and it falls out of
	// lock, which is the mechanism behind the paper's measured low-pass
	// filtering gains.
	CFO float64
	// Scale supplies frames, payload, noise and seeds.
	Scale Scale
}

// PacketLoss measures the packet-loss rate at the given SNR
// (signal power over the noise floor, dB). Frames whose decode fails for
// any reason — CRC, SFD, truncation — count as lost, mirroring the paper's
// CRC-based loss definition.
func (t Trial) PacketLoss(snrDB float64, pointSeed uint64) (float64, error) {
	plr, _, err := t.PacketLossDetail(snrDB, pointSeed)
	return plr, err
}

// PacketLossDetail is PacketLoss plus the mean carrier-lock quality the
// receiver reported across the point's frames (0 when tracking loops are
// disabled) — the observable behind the hardware-fidelity sweep's
// "where do the loops lose lock" question.
func (t Trial) PacketLossDetail(snrDB float64, pointSeed uint64) (plr, meanLock float64, err error) {
	met := t.Scale.Obs
	var psw obs.Stopwatch
	if met != nil {
		psw = obs.Start()
	}
	cfg := t.Config
	cfg.FilterTaps = t.Scale.FilterTaps
	tx, err := core.NewTransmitter(cfg)
	if err != nil {
		return 0, 0, err
	}
	rx, err := core.NewReceiver(cfg)
	if err != nil {
		return 0, 0, err
	}
	tx.SetObserver(met)
	rx.SetObserver(met)
	var jam jammer.Source
	var sensing jammer.TxAware
	if t.NewJammer != nil {
		jam, err = t.NewJammer(pointSeed ^ 0xa5a5a5a5)
		if err != nil {
			return 0, 0, err
		}
		// Sensing adversaries (the reactive/multitone/adaptive followers)
		// overhear the over-the-air burst — gain, phase and CFO applied,
		// before noise — and jam sample-aligned with it, exactly the
		// estimator-follower threat model of DESIGN.md §16.
		if ta, ok := jam.(jammer.TxAware); ok {
			sensing = ta
			if met != nil {
				ta.SetObserver(&met.Jam)
			}
		}
	}
	noise := channel.NewAWGN(t.Scale.NoiseVar, pointSeed^0x5a5a5a5a)
	if met != nil {
		noise.SetObserver(&met.Chan)
	}
	// The receiver front-end impairment chain, applied to the composite
	// signal just before decoding. Stage state (oscillator phase, phase
	// noise walk, resampler position) persists across the point's frames,
	// as it would on hardware; the point seed keeps it deterministic.
	var front *impair.Chain
	if t.Scale.Impair != "" {
		front, err = impair.NewFromSpec(t.Scale.Impair, cfg.SampleRate, pointSeed^0x3c3c3c3c)
		if err != nil {
			return 0, 0, err
		}
		if met != nil {
			front.SetObserver(&met.Impair)
		}
	}
	src := prng.New(pointSeed)
	payload := make([]byte, t.Scale.PayloadBytes)

	gain := math.Sqrt(t.Scale.NoiseVar) * stats.AmplitudeFromDB(snrDB)
	lost := 0
	lockSum := 0.0
	// The receive buffer is reused across frames: each frame copies the
	// burst in and applies channel effects in place, so the trial loop
	// stays off the allocator in steady state.
	var rxSamples, impaired []complex128
	for i := 0; i < t.Scale.Frames; i++ {
		for b := range payload {
			payload[b] = byte(src.Uint64())
		}
		burst, err := tx.EncodeFrame(payload)
		if err != nil {
			return 0, 0, err
		}
		rxSamples = append(rxSamples[:0], burst.Samples...)
		if gain != 1 {
			for k := range rxSamples {
				rxSamples[k] *= complex(gain, 0)
			}
		}
		if t.RandomPhase || t.CFO > 0 {
			// Phase/CFO-only impairments rotate in place on the private copy.
			phase := 0.0
			if t.RandomPhase {
				phase = 2 * math.Pi * src.Float64()
			}
			cfo := 0.0
			if t.CFO > 0 {
				cfo = t.CFO
				if src.Bit() == 1 {
					cfo = -cfo
				}
			}
			dsp.Mix(rxSamples, cfo, phase)
		}
		if jam != nil {
			var j []complex128
			if sensing != nil {
				sensing.NewBurst()
				j = sensing.Jam(rxSamples)
			} else {
				j = jam.Emit(len(rxSamples))
			}
			for k := range rxSamples {
				rxSamples[k] += j[k]
			}
			if met != nil {
				met.Chan.JamSamples.Add(int64(len(j)))
			}
		}
		noise.Add(rxSamples)
		decodeIn := rxSamples
		if front.Len() > 0 {
			impaired = front.ProcessAppend(impaired[:0], rxSamples)
			decodeIn = impaired
		}
		got, st, err := rx.DecodeBurst(decodeIn)
		lockSum += st.CarrierLock
		if err != nil || len(got) != len(payload) {
			lost++
			continue
		}
		for b := range payload {
			if got[b] != payload[b] {
				lost++
				break
			}
		}
	}
	plr = float64(lost) / float64(t.Scale.Frames)
	meanLock = lockSum / float64(t.Scale.Frames)
	if met != nil {
		met.Exp.Points.Inc()
		met.Exp.Frames.Add(int64(t.Scale.Frames))
		met.Exp.FramesLost.Add(int64(lost))
		// Fixed-point millionths: integer adds commute across worker
		// goroutines, so the sweep-wide mean lock is schedule-independent.
		met.Exp.LockMicroSum.Add(int64(math.Round(meanLock * 1e6)))
		met.Exp.LastPLR.Store(plr)
		met.Exp.LastSNRdB.Store(snrDB)
		met.Exp.PointNS.ObserveSince(psw)
	}
	return plr, meanLock, nil
}

// MinSNR returns the smallest SNR (dB) at which the packet-loss rate stays
// below 50% (the paper's error-performance threshold), found by monotone
// bisection over the scale's SNR range. It returns stats.ErrNoThreshold
// when even the top of the range loses half the packets.
func (t Trial) MinSNR() (float64, error) {
	seedCounter := t.Scale.Seed
	return stats.FindThreshold(t.Scale.SNRLoDB, t.Scale.SNRHiDB, t.Scale.SNRTolDB,
		func(snrDB float64) bool {
			// Derive a per-point seed from the SNR so repeated probes of
			// the same point reuse identical noise (keeps the predicate
			// deterministic and near-monotone).
			bits := math.Float64bits(snrDB)
			plr, err := t.PacketLoss(snrDB, seedCounter^bits*0x9e3779b97f4a7c15)
			if err != nil {
				return false
			}
			return plr < 0.5
		})
}

// PowerAdvantage returns minSNR(reference) − minSNR(test) in dB: how much
// more signal power the reference link needs to reach the same 50%
// packet-loss performance. Either trial failing to reach the threshold
// anywhere in the search range yields an error naming the side.
func PowerAdvantage(test, reference Trial) (float64, error) {
	testSNR, err := test.MinSNR()
	if err != nil {
		return 0, fmt.Errorf("experiment: test link: %w", err)
	}
	refSNR, err := reference.MinSNR()
	if err != nil {
		return 0, fmt.Errorf("experiment: reference link: %w", err)
	}
	return refSNR - testSNR, nil
}
