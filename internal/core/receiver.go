package core

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"bhss/internal/dsp"
	"bhss/internal/dsp/simd"
	"bhss/internal/dsss"
	"bhss/internal/frame"
	"bhss/internal/obs"
	"bhss/internal/pulse"
	"bhss/internal/spectral"
	"bhss/internal/tracking"
)

// FilterDecision names the control logic's choice for one hop (§4.2).
type FilterDecision int

const (
	// FilterNone: jammer absent, weak, or bandwidth-matched — despreading
	// alone must carry the hop (Figure 3).
	FilterNone FilterDecision = iota
	// FilterLowPass: the jammer is wider than the signal; suppress
	// everything outside the signal band (Figure 2, eq. (4)).
	FilterLowPass
	// FilterExcision: the jammer is narrower than the signal; whiten the
	// spectrum with the PSD-reciprocal filter (Figure 1, eq. (3)).
	FilterExcision
)

// String names the decision.
func (d FilterDecision) String() string {
	switch d {
	case FilterNone:
		return "none"
	case FilterLowPass:
		return "low-pass"
	case FilterExcision:
		return "excision"
	default:
		return "unknown"
	}
}

// HopReport is the receiver's diagnostic record for one hop.
type HopReport struct {
	BandwidthMHz   float64
	SamplesPerChip int
	Decision       FilterDecision
	// InBandPower and OutBandPower summarize the PSD estimate relative
	// to the hop's signal band.
	InBandPower, OutBandPower float64
	// PeakToMedian is the in-band narrow-band interference indicator.
	PeakToMedian float64
}

// RxStats aggregates the diagnostics of one decoded burst.
type RxStats struct {
	Hops []HopReport
	// MeanMetric is the average winning-correlator output across symbols
	// (16 is a clean match).
	MeanMetric float64
	// AcquisitionOffset is the detected burst start (PreambleSync only).
	AcquisitionOffset int
	// BurstSamples is how many samples from AcquisitionOffset the decode
	// walked: the burst's extent when it decoded, so a streaming receiver
	// knows where the next burst may start.
	BurstSamples int
	// CFO is the estimated carrier offset in cycles/sample
	// (PreambleSync only).
	CFO float64
	// CarrierFreq is the residual carrier offset tracked by the Costas
	// loop at the end of the burst, in cycles/sample (TrackingLoops only).
	CarrierFreq float64
	// CarrierLock is the carrier loop's final lock quality in [0, 1]
	// (tracking.Costas.LockQuality; TrackingLoops only). CarrierLocked is
	// CarrierLock compared against tracking.DefaultLockThreshold — the
	// receiver's own verdict on whether the constellation was stable.
	CarrierLock   float64
	CarrierLocked bool
}

// Reset clears the stats for reuse, keeping the Hops backing array so a
// recycled RxStats records the next burst without reallocating.
func (s *RxStats) Reset() {
	s.Hops = s.Hops[:0]
	s.MeanMetric = 0
	s.AcquisitionOffset = 0
	s.BurstSamples = 0
	s.CFO = 0
	s.CarrierFreq = 0
	s.CarrierLock = 0
	s.CarrierLocked = false
}

// Decode errors beyond those of package frame.
var (
	// ErrTruncatedBurst flags fewer samples than one hop of one symbol.
	ErrTruncatedBurst = errors.New("core: burst shorter than one symbol")
	// ErrNoPreamble flags a failed acquisition in PreambleSync mode.
	ErrNoPreamble = errors.New("core: preamble not found")
	// ErrNonFiniteInput flags NaN or Inf samples in the capture. They are
	// rejected up front: one NaN entering the PSD estimator's FFT would
	// otherwise smear across every bin and silently corrupt the filter
	// decision rather than fail loudly.
	ErrNonFiniteInput = errors.New("core: burst contains non-finite samples")
)

// Receiver is the BHSS receiver of Figure 6.
type Receiver struct {
	linkState

	lpfCache   map[int]*dsp.FIR
	shapeCache map[[2]int][]float64
	// welchCache holds one reusable PSD estimator per segment length, so
	// per-hop spectral analysis allocates nothing in steady state.
	welchCache map[int]*spectral.Reusable
	// notchConv holds one excision convolver per PSD size. Every excision
	// hop designs its notch into receiver scratch and loads the taps with
	// SetTaps, so the design allocates nothing whatever the jammer does.
	notchConv map[int]*dsp.OverlapSave
	// desp despreads the header and the burst; it is reseeded with the
	// frame's scrambler seed before each use.
	desp *dsss.Despreader
	// loop is the carrier loop (TrackingLoops only, else nil), reset at the
	// start of every burst.
	loop *tracking.Costas

	// met is the optional observer; nil skips all recording. Recording
	// never touches sample data, so decode output is identical either way.
	met *obs.Pipeline
	// stats is the reusable per-burst diagnostic record DecodeBurst hands
	// out, valid until the next DecodeBurst call.
	stats RxStats

	scratch rxScratch
}

// SetObserver attaches a metrics pipeline to the receiver (nil detaches).
// Existing cached Welch estimators are rewired so PSD metrics flow
// regardless of attachment order.
func (r *Receiver) SetObserver(p *obs.Pipeline) {
	r.met = p
	for _, e := range r.welchCache {
		if p != nil {
			e.SetObserver(&p.PSD)
		} else {
			e.SetObserver(nil)
		}
	}
}

// rxScratch holds the working buffers DecodeBurst reuses across hops and
// bursts, keeping the steady-state decode path off the allocator. Every
// field is overwritten by the next hop/burst; views must not outlive a call
// (enforced by the scratchalias analyzer).
type rxScratch struct {
	//bhss:scratch
	raw, psd, detect []float64 // PSD estimate and its two smoothings
	//bhss:scratch
	norm []float64 // shape-normalized in-band bins
	//bhss:scratch
	target, qpsd []float64 // notch target and quantized PSD
	//bhss:scratch
	spec, taps []complex128 // notch design: magnitude/inverse DFT and taps
	//bhss:scratch
	filtered []complex128 // filterHop output
	//bhss:scratch
	tracked []complex128 // carrier-loop working copy
	//bhss:scratch
	cfo []complex128 // coarse CFO estimator's FFT buffer
	//bhss:scratch
	chips []complex128 // accumulated chip estimates
	//bhss:scratch
	aligned []complex128 // PreambleSync: the capture from the burst start, de-rotated
	//bhss:scratch
	tmpl []complex128 // PreambleSync: the frame's preamble waveform
	//bhss:scratch
	rev []complex128 // acquisition template, time-reversed and conjugated
	//bhss:scratch
	corr []complex128 // acquisition correlation
	//bhss:scratch
	symbols []int // despread symbol decisions
	//bhss:scratch
	metrics []float64 // despread correlation metrics
}

// NewReceiver returns a receiver for the configuration. Construct it from
// the same Config as the transmitter.
func NewReceiver(cfg Config) (*Receiver, error) {
	l, err := newLinkState(cfg)
	if err != nil {
		return nil, err
	}
	r := &Receiver{
		linkState:  l,
		lpfCache:   map[int]*dsp.FIR{},
		shapeCache: map[[2]int][]float64{},
		welchCache: map[int]*spectral.Reusable{},
		notchConv:  map[int]*dsp.OverlapSave{},
		desp:       dsss.NewDespreader(0),
	}
	if cfg.TrackingLoops {
		if r.loop, err = tracking.NewCostas(carrierLoopBW); err != nil {
			return nil, err
		}
	}
	if cfg.EnableFilter {
		// "We pre-compute the taps of all possible low-pass filters in
		// advance" (§6.1) — including their frequency-domain transforms,
		// so the first jammed hop pays no design cost either.
		for _, sps := range r.spsTab {
			r.lowPass(sps).Convolver()
		}
	}
	return r, nil
}

// welch returns the cached reusable Welch estimator for segment length k.
func (r *Receiver) welch(k int) (*spectral.Reusable, error) {
	if e, ok := r.welchCache[k]; ok {
		if r.met != nil {
			r.met.Cache.WelchHit.Inc()
		}
		return e, nil
	}
	e, err := spectral.Welch(k).Reusable()
	if err != nil {
		return nil, err
	}
	if r.met != nil {
		r.met.Cache.WelchMiss.Inc()
		e.SetObserver(&r.met.PSD)
	}
	r.welchCache[k] = e
	return e, nil
}

// resizeFloats returns a slice of length n, reusing s's storage when it is
// large enough.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// resizeComplex is resizeFloats for complex samples.
func resizeComplex(s []complex128, n int) []complex128 {
	if cap(s) < n {
		return make([]complex128, n)
	}
	return s[:n]
}

// SkipFrame advances the frame counter without decoding (call when a frame
// is known to be lost before reaching the receiver, to stay in lockstep).
func (r *Receiver) SkipFrame() { r.frame++ }

// lowPass returns the cached channel-select filter for a hop bandwidth.
func (r *Receiver) lowPass(sps int) *dsp.FIR {
	if f, ok := r.lpfCache[sps]; ok {
		if r.met != nil {
			r.met.Cache.LowPassHit.Inc()
		}
		return f
	}
	if r.met != nil {
		r.met.Cache.LowPassMiss.Inc()
	}
	// Keep the half-sine main lobe (~1.5/sps two-sided) while cutting the
	// out-of-band jammer. Sharper transitions need more taps; the tap
	// budget mirrors the paper's hardware cap.
	cutoff := 0.75 / float64(sps)
	if cutoff >= 0.5 {
		cutoff = 0.499
	}
	f := dsp.LowPassForAttenuation(cutoff, 60, cutoff/2, r.cfg.FilterTaps)
	r.lpfCache[sps] = f
	return f
}

// hopFilterCtx carries what estimateHop learned to filterHop.
type hopFilterCtx struct {
	raw   []float64 // raw Welch PSD estimate (receiver scratch)
	shape []float64 // expected signal spectrum, unit peak, floored
	refN  float64   // shape-normalized in-band signal level
}

// estimateHop runs the spectral analysis of §4.2 for one hop segment and
// returns the filter decision plus the design context.
//
//bhss:hotpath
//bhss:scratchview ctx.raw aliases receiver scratch, valid until the next estimateHop call
func (r *Receiver) estimateHop(seg []complex128, sps int) (FilterDecision, hopFilterCtx, HopReport) {
	if r.met != nil {
		// Open-coded defer (Go ≥1.14): no allocation, so the hot path stays
		// at 0 allocs/op with recording enabled.
		defer r.met.RecordStage(obs.StageRxEstimate, obs.Start())
	}
	report := HopReport{SamplesPerChip: sps}
	k := welchSegment(sps, len(seg), r.cfg.FilterTaps)
	if k < 16 {
		return FilterNone, hopFilterCtx{}, report
	}
	//bhss:allow(hotpath) welch estimators are memoized per resolution k; the construction allocates only on first sight of a k
	est, err := r.welch(k)
	if err != nil {
		return FilterNone, hopFilterCtx{}, report
	}
	//bhss:allow(hotpath) amortized growth: resizeFloats reuses the scratch storage once warm
	r.scratch.raw = resizeFloats(r.scratch.raw, k)
	raw := r.scratch.raw
	if err := est.PSDInto(raw, seg); err != nil {
		return FilterNone, hopFilterCtx{}, report
	}
	// Light smoothing tames the per-bin scatter of short-capture
	// periodograms without diluting a narrow jammer's peak. The excision
	// *design* smooths even less so the notch stays as narrow as the
	// jammer (notchFilter runs it on demand, so unjammed hops skip it).
	// A spurious excision triggered by residual scatter is benign: the
	// notch only touches bins far above the expected signal level.
	r.scratch.detect = resizeFloats(r.scratch.detect, k)
	detect := r.scratch.detect
	dsp.SmoothPSDInto(detect, raw, 5)
	signalBW := 1.5 / float64(sps) // half-sine main lobe, two-sided
	if signalBW > 1 {
		signalBW = 1
	}
	// Band powers integrate many raw bins and are robust without
	// smoothing; smoothing would smear a very narrow signal beyond its
	// own band and fake out-of-band power.
	inBand := spectral.BandPower(raw, signalBW)
	total := spectral.BandPower(raw, 1)
	outBand := total - inBand
	report.InBandPower = inBand
	report.OutBandPower = outBand

	// Shape-normalized narrow-band indicator: dividing the in-band PSD by
	// the known pulse spectrum |G(f)|² flattens the signal's own spectral
	// peak, so any residual structure is interference. The reference is a
	// low quantile of the normalized bins — still signal-anchored when
	// the jammer covers up to ~half of the band (the eq. (11) excision
	// region extends almost to the matched bandwidth).
	//bhss:allow(hotpath) pulse-shape spectra are memoized per (sps, k); allocates only on cache miss
	shape := r.pulseShapeGain(sps, k)
	normBins := r.scratch.norm[:0]
	half := signalBW / 2
	// k is a power of two, so 1/k is exact and the reciprocal multiply
	// rounds identically to a per-bin division.
	invK := 1 / float64(k)
	for i, p := range detect {
		f := float64(i) * invK
		if f >= 0.5 {
			f -= 1
		}
		if f >= -half && f <= half {
			normBins = append(normBins, p/shape[i])
		}
	}
	r.scratch.norm = normBins
	// Quickselect returns the floor(q·n) order statistic a full sort would
	// index, in O(n) instead of O(n log n); the peak is a single scan. The
	// scratch is receiver-owned, so the partial reordering is harmless.
	refN := dsp.QuantileSelect(normBins, signalQuantile)
	report.PeakToMedian = ratioOrInf(dsp.MaxFloats(normBins), refN)

	ctx := hopFilterCtx{raw: raw, shape: shape, refN: refN}
	switch {
	case signalBW < 1 && outBand > widebandExcessRatio*inBand:
		report.Decision = FilterLowPass
		return FilterLowPass, ctx, report
	case report.PeakToMedian > excisionPeakRatio:
		report.Decision = FilterExcision
		return FilterExcision, ctx, report
	default:
		report.Decision = FilterNone
		return FilterNone, ctx, report
	}
}

// welchSegment returns the Welch segment length for a hop of hopLen samples
// at sps samples per chip under a filterTaps budget: a power of two no larger
// than psdSegmentCap. Below 16 the hop is too short to estimate and takes
// FilterNone.
func welchSegment(sps, hopLen, filterTaps int) int {
	// Resolution adapts to the hop: aim for ~32 bins across the signal
	// band (in-band bins = K * 1.5/sps) so an in-band notch can be much
	// narrower than the band, bounded by psdSegmentCap, the filter tap
	// budget (the notch has K-1 taps) and the hop length.
	k := dsp.NextPow2(32 * sps)
	if k < 256 {
		k = 256
	}
	if k > psdSegmentCap {
		k = psdSegmentCap
	}
	for k > filterTaps+1 {
		k >>= 1
	}
	// Insist on at least ~3 half-overlapped Welch segments: a single
	// periodogram's per-bin scatter (even smoothed) is indistinguishable
	// from narrow-band structure.
	for k > hopLen/2 {
		k >>= 1
	}
	return k
}

// pulseShapeGain returns (and caches) the expected power spectrum of the
// hop's chip pulse over k FFT bins: |G(f)|² with unit peak, floored at 5%
// so out-of-band bins keep a usable excision target.
func (r *Receiver) pulseShapeGain(sps, k int) []float64 {
	key := [2]int{sps, k}
	if g, ok := r.shapeCache[key]; ok {
		if r.met != nil {
			r.met.Cache.ShapeHit.Inc()
		}
		return g
	}
	if r.met != nil {
		r.met.Cache.ShapeMiss.Inc()
	}
	buf := make([]complex128, k)
	for i, t := range pulse.Taps(sps) {
		buf[i%k] += complex(t, 0)
	}
	dsp.PlanFFT(k).Forward(buf)
	shape := make([]float64, k)
	var peak float64
	for i, v := range buf {
		shape[i] = real(v)*real(v) + imag(v)*imag(v)
		if shape[i] > peak {
			peak = shape[i]
		}
	}
	if peak == 0 {
		peak = 1
	}
	const floor = 0.05
	for i := range shape {
		shape[i] /= peak
		if shape[i] < floor {
			shape[i] = floor
		}
	}
	r.shapeCache[key] = shape
	return shape
}

// filterHop applies the decided filter to the hop's samples. FilterNone
// returns seg itself, untouched; otherwise the returned slice aliases
// receiver scratch that stays valid until the next hop is filtered.
//
//bhss:hotpath
//bhss:scratchview output is valid until the next filterHop call
func (r *Receiver) filterHop(seg []complex128, sps int, decision FilterDecision, ctx hopFilterCtx) ([]complex128, error) {
	if r.met != nil && decision != FilterNone {
		defer r.met.RecordStage(obs.StageRxFilter, obs.Start())
	}
	switch decision {
	case FilterLowPass:
		//bhss:allow(hotpath) FIR designs and their overlap-save convolvers are memoized per sps; allocates only on cache miss
		r.scratch.filtered = r.lowPass(sps).Convolver().ApplySame(r.scratch.filtered[:0], seg)
	case FilterExcision:
		//bhss:allow(hotpath) the design writes into receiver scratch (grown amortized); a convolver is built only on first sight of a PSD size
		conv, err := r.notchFilter(ctx)
		if err != nil {
			return nil, err
		}
		r.scratch.filtered = conv.ApplySame(r.scratch.filtered[:0], seg)
	default:
		return seg, nil
	}
	return r.scratch.filtered, nil
}

// notchFilter designs the excision filter for the hop and returns the
// convolver it is loaded in: a notch-floor variant of the eq. (3) whitening
// filter with a shaped target — each bin is allowed the signal's expected
// level at that frequency (refN · |G(f)|²) and anything above is jamming,
// pushed well below it.
//
// Every excision hop designs afresh from its own PSD, as §6.1 does (only the
// low-pass bank is precomputed). The over-target bins are quantized to
// quarter-octaves relative to the reference level before the design, so
// notch depths move in 0.75 dB steps; the golden vectors and the quick
// anchors pin that design. The design and its taps live in receiver
// scratch, and the taps are transformed into the one convolver kept per PSD
// size, so a jammer that changes every hop costs no allocation.
func (r *Receiver) notchFilter(ctx hopFilterCtx) (*dsp.OverlapSave, error) {
	k := len(ctx.raw)
	// Design-grade smoothing: lighter than the detection smoothing so the
	// notch stays as narrow as the jammer.
	r.scratch.psd = resizeFloats(r.scratch.psd, k)
	psd := r.scratch.psd
	dsp.SmoothPSDInto(psd, ctx.raw, 3)
	r.scratch.target = resizeFloats(r.scratch.target, k)
	target := r.scratch.target
	for i := range target {
		target[i] = ctx.refN * ctx.shape[i]
	}
	// A degenerate reference (no measurable signal) leaves nothing to
	// quantize against, so that design reads the estimate directly.
	design := psd
	if ctx.refN > 0 {
		r.scratch.qpsd = resizeFloats(r.scratch.qpsd, k)
		design = r.scratch.qpsd
		for i, p := range psd {
			design[i] = 0 // below target: passes with unit gain either way
			if p > excisionPeakRatio*target[i] {
				e := math.Round(4 * math.Log2(p/ctx.refN))
				design[i] = ctx.refN * math.Exp2(e/4)
			}
		}
	}
	var dsw obs.Stopwatch
	if r.met != nil {
		r.met.Cache.NotchMiss.Inc()
		dsw = obs.Start()
	}
	r.scratch.spec = resizeComplex(r.scratch.spec, k)
	taps, err := dsp.ShapedNotchInto(r.scratch.taps[:0], r.scratch.spec, design, target, excisionPeakRatio)
	if r.met != nil {
		r.met.RecordStage(obs.StageRxFilterDesign, dsw)
	}
	if err != nil {
		return nil, err
	}
	r.scratch.taps = taps
	conv, ok := r.notchConv[k]
	if !ok {
		conv = dsp.NewOverlapSave(taps)
		r.notchConv[k] = conv
		return conv, nil
	}
	conv.SetTaps(taps)
	return conv, nil
}

// signalQuantile is the in-band PSD quantile used as the "signal level"
// reference for excision detection and notch design. A value below 0.5
// keeps the reference anchored on the un-jammed bins even when the jammer
// occupies a large fraction of the band.
const signalQuantile = 0.35

// psdSegmentCap caps the Welch segment length for jammer estimation
// (a power of two). The per-hop size adapts below it to the hop
// bandwidth: narrow hops need fine frequency resolution for the excision
// notch, wide hops need averaging.
const psdSegmentCap = 2048

// excisionPeakRatio is the threshold on the shape-normalized in-band
// interference indicator (peak over low quantile of PSD/|G(f)|²) above
// which the excision filter engages, and the per-bin over-target factor
// the notch design cuts at. The normalized indicator is ~1-2 on a clean
// channel because the pulse's own spectral shape has been divided out,
// and a false trigger costs only the few bins that exceed the shaped
// target.
const excisionPeakRatio = 3

// widebandExcessRatio is the out-of-band to in-band power ratio above
// which the control logic engages the low-pass filter.
const widebandExcessRatio = 0.5

// ratioOrInf returns peak/ref, mapping a zero reference to 0 (when the peak
// is zero too) or +Inf.
func ratioOrInf(peak, ref float64) float64 {
	if ref == 0 {
		if peak == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return peak / ref
}

// DecodeBurst decodes one burst whose samples begin exactly at the frame
// start (IdealSync) or contain it (PreambleSync). It advances the frame
// counter whether or not decoding succeeds, keeping the seed streams in
// lockstep with the transmitter. The returned stats are valid even when an
// error is returned.
//
// The stats are a reusable receiver-owned record: they stay valid until the
// next DecodeBurst call and must not be retained across calls. Callers that
// manage their own record use DecodeBurstInto.
func (r *Receiver) DecodeBurst(samples []complex128) ([]byte, *RxStats, error) {
	r.stats.Reset()
	payload, err := r.DecodeBurstInto(&r.stats, samples)
	return payload, &r.stats, err
}

// DecodeBurstInto is DecodeBurst with a caller-supplied stats record, for
// callers that pool or retain diagnostics. stats is overwritten (call Reset
// to also recycle its Hops storage); it is filled in even when an error is
// returned.
func (r *Receiver) DecodeBurstInto(stats *RxStats, samples []complex128) ([]byte, error) {
	if r.met == nil {
		return r.decodeBurst(stats, samples)
	}
	sw := obs.Start()
	r.met.Rx.Bursts.Inc()
	r.met.Rx.Samples.Add(int64(len(samples)))
	payload, err := r.decodeBurst(stats, samples)
	r.met.RecordStage(obs.StageRxDecode, sw)
	if err != nil {
		r.met.Rx.Errors.Inc()
	} else {
		r.met.Rx.Decoded.Inc()
	}
	return payload, err
}

// The carrier loop persists across hops (Figure 6 places it after the
// filters) with one fixed per-sample bandwidth: wide enough to track the
// residual carrier offset of free-running oscillators, narrow enough to stay
// quiet on a clean channel. It must *acquire* the channel phase — the
// prototype's free-running oscillators give an arbitrary offset — which is
// exactly what strong unfiltered jamming prevents: under jamming the loop's
// decision-directed error turns into noise and the tracked carrier walks
// away, the vulnerability the pre-despreading filters protect.
const carrierLoopBW = 0.0005

// maxTrackedCFO bounds the coarse acquisition search (cycles/sample).
const maxTrackedCFO = 2e-4

func (r *Receiver) decodeBurst(stats *RxStats, samples []complex128) ([]byte, error) {
	fr := r.frame
	r.frame++

	if !simd.AllFinite(samples) {
		return nil, ErrNonFiniteInput
	}

	if r.cfg.Sync == PreambleSync {
		var asw obs.Stopwatch
		if r.met != nil {
			asw = obs.Start()
		}
		offset, cfo, phase, err := r.acquire(samples, fr)
		if r.met != nil {
			r.met.RecordStage(obs.StageRxAcquire, asw)
		}
		if err != nil {
			// No burst in this capture: give the frame counter back so a
			// streaming receiver stays in lockstep with the transmitter
			// while it scans for the next burst.
			r.frame = fr
			return nil, err
		}
		stats.AcquisitionOffset = offset
		stats.CFO = cfo
		r.scratch.aligned = append(r.scratch.aligned[:0], samples[offset:]...)
		dsp.Mix(r.scratch.aligned, -cfo, -phase)
		samples = r.scratch.aligned
	}

	r.startFrame(fr)
	scramblerSeed := deriveSeed(r.cfg.Seed, fr, purposeScrambler)

	loop := r.loop
	if loop != nil {
		loop.Reset()
	}

	chips := r.scratch.chips[:0]
	totalSymbols := -1 // unknown until the length byte is decoded
	maxSymbols := frame.EncodedSymbols(frame.MaxPayload)
	samplePos := 0
	rotation := complex(1, 0)

	for {
		collected := len(chips) / dsss.ComplexChipsPerSymbol
		if totalSymbols >= 0 && collected >= totalSymbols {
			break
		}
		if collected >= maxSymbols {
			break
		}
		bwIdx := r.nextHop()
		sps := r.spsTab[bwIdx]
		nSym := r.cfg.SymbolsPerHop
		if totalSymbols >= 0 && collected+nSym > totalSymbols {
			nSym = totalSymbols - collected
		}
		segLen := nSym * dsss.ComplexChipsPerSymbol * sps
		if samplePos+segLen > len(samples) {
			// Clamp to the whole symbols that remain in the capture.
			avail := (len(samples) - samplePos) / (dsss.ComplexChipsPerSymbol * sps)
			if avail <= 0 {
				break
			}
			nSym = avail
			segLen = nSym * dsss.ComplexChipsPerSymbol * sps
		}
		seg := samples[samplePos : samplePos+segLen]
		samplePos += segLen

		var report HopReport
		if r.cfg.EnableFilter {
			decision, ctx, rep := r.estimateHop(seg, sps)
			report = rep
			filtered, err := r.filterHop(seg, sps, decision, ctx)
			if err != nil {
				return nil, fmt.Errorf("core: hop filter: %w", err)
			}
			seg = filtered
		} else {
			report = HopReport{SamplesPerChip: sps, Decision: FilterNone}
		}
		report.BandwidthMHz = r.dist.Bandwidths[bwIdx]
		stats.Hops = append(stats.Hops, report)
		if r.met != nil {
			r.met.Rx.Hops.Inc()
			r.met.Rx.Decision[report.Decision].Inc()
		}

		if loop != nil {
			if len(stats.Hops) == 1 {
				// Coarse CFO acquisition on the first (filtered) hop:
				// the 4th-power spectral line of QPSK preloads the
				// loop's frequency. Under unsuppressed strong jamming
				// the line drowns and the estimate is useless — part
				// of the vulnerability the filters protect.
				r.scratch.cfo = resizeComplex(r.scratch.cfo, dsp.NextPow2(len(seg)))
				loop.SetFrequency(tracking.CoarseCFOInRange(r.scratch.cfo, seg, maxTrackedCFO))
			}
			var tsw obs.Stopwatch
			if r.met != nil {
				tsw = obs.Start()
			}
			r.scratch.tracked = append(r.scratch.tracked[:0], seg...)
			loop.Process(r.scratch.tracked)
			seg = r.scratch.tracked
			if r.met != nil {
				r.met.RecordStage(obs.StageRxTrack, tsw)
			}
		}

		var dsw obs.Stopwatch
		if r.met != nil {
			dsw = obs.Start()
		}
		chips = pulse.DemodulateAppend(chips, seg, r.pulseTab[bwIdx], 0)
		if r.met != nil {
			r.met.RecordStage(obs.StageRxDemod, dsw)
		}

		if totalSymbols < 0 && len(chips) >= frame.HeaderSymbols*dsss.ComplexChipsPerSymbol {
			rot, total := r.resolveHeader(chips, scramblerSeed)
			rotation = rot
			totalSymbols = total
		}
	}
	stats.BurstSamples = samplePos
	return r.finishBurst(stats, chips, loop, rotation, scramblerSeed)
}

// finishBurst is the post-hop-loop tail of a decode: record the carrier
// loop's verdict, undo the QPSK rotation ambiguity, despread and
// frame-decode the accumulated chips.
func (r *Receiver) finishBurst(stats *RxStats, chips []complex128, loop *tracking.Costas, rotation complex128, scramblerSeed uint64) ([]byte, error) {
	r.scratch.chips = chips // keep the grown buffer for the next burst
	if loop != nil {
		stats.CarrierFreq = loop.Frequency()
		stats.CarrierLock = loop.LockQuality()
		stats.CarrierLocked = stats.CarrierLock >= tracking.DefaultLockThreshold
	}
	if len(chips) < dsss.ComplexChipsPerSymbol {
		return nil, ErrTruncatedBurst
	}
	if rotation != 1 {
		for i := range chips {
			chips[i] *= rotation
		}
	}
	whole := len(chips) / dsss.ComplexChipsPerSymbol * dsss.ComplexChipsPerSymbol
	r.desp.Reset(scramblerSeed)
	var ssw obs.Stopwatch
	if r.met != nil {
		ssw = obs.Start()
	}
	symbols, metrics, err := r.desp.DespreadInto(r.scratch.symbols, r.scratch.metrics, chips[:whole])
	if r.met != nil {
		r.met.RecordStage(obs.StageRxDespread, ssw)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	r.scratch.symbols, r.scratch.metrics = symbols, metrics
	var metricSum float64
	for _, m := range metrics {
		metricSum += m
	}
	stats.MeanMetric = metricSum / float64(len(symbols))
	payload, err := frame.Decode(symbols)
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// resolveHeader despreads the header chips and returns the QPSK rotation
// correction and the frame's total symbol count. A carrier loop locks to
// the constellation only modulo π/2; the known all-zero preamble resolves
// the ambiguity (without tracking loops only the identity rotation is
// tried). When the length byte is unreadable the maximum frame length is
// assumed and the CRC check rejects the frame downstream.
func (r *Receiver) resolveHeader(chips []complex128, scramblerSeed uint64) (complex128, int) {
	var buf [frame.HeaderSymbols * dsss.ComplexChipsPerSymbol]complex128
	headerChips := chips[:len(buf)]
	rotations := []complex128{1}
	if r.cfg.TrackingLoops {
		rotations = []complex128{1, complex(0, 1), -1, complex(0, -1)}
	}
	maxSymbols := frame.EncodedSymbols(frame.MaxPayload)
	bestRot := complex(1, 0)
	bestScore := math.Inf(-1)
	bestTotal := maxSymbols
	for _, rot := range rotations {
		for i, c := range headerChips {
			buf[i] = c * rot
		}
		r.desp.Reset(scramblerSeed)
		syms, metrics, err := r.desp.DespreadInto(r.scratch.symbols, r.scratch.metrics, buf[:])
		if err != nil {
			continue
		}
		r.scratch.symbols, r.scratch.metrics = syms, metrics
		// Majority of the preamble symbols must be zero; the first one
		// or two may be lost while the loop pulls in.
		nPre := frame.PreambleBytes * frame.SymbolsPerByte
		zeros := 0
		for _, s := range syms[:nPre] {
			if s == 0 {
				zeros++
			}
		}
		var score float64
		for _, m := range metrics {
			score += m
		}
		if zeros*4 >= nPre*3 {
			score += 1e6 // preamble match dominates the metric sum
		}
		if score > bestScore {
			bestScore = score
			bestRot = rot
			bestTotal = maxSymbols
			if n, ok := peekLength(syms); ok {
				bestTotal = frame.EncodedSymbols(n)
			}
		}
	}
	return bestRot, bestTotal
}

// peekLength extracts the length byte from the decoded header symbols.
func peekLength(symbols []int) (int, bool) {
	lo := symbols[(frame.PreambleBytes+1)*frame.SymbolsPerByte]
	hi := symbols[(frame.PreambleBytes+1)*frame.SymbolsPerByte+1]
	if lo < 0 || lo > 15 || hi < 0 || hi > 15 {
		return 0, false
	}
	n := lo | hi<<4
	if n > frame.MaxPayload {
		return 0, false
	}
	return n, true
}

// acquire locates the frame start within the capture by correlating against
// the known preamble waveform of frame fr, and estimates carrier phase and
// a coarse CFO from the correlation (PreambleSync mode).
func (r *Receiver) acquire(samples []complex128, fr uint64) (offset int, cfo, phase float64, err error) {
	// Everything up to the SFD is known a priori: the template is the
	// frame's preamble as the transmitter modulates it.
	r.startFrame(fr)
	r.scratch.tmpl, err = r.modulate(r.scratch.tmpl[:0], nil, preambleSymbols[:], nil)
	if err != nil {
		return 0, 0, 0, err
	}
	tmpl := r.scratch.tmpl
	if len(samples) < len(tmpl) {
		return 0, 0, 0, ErrNoPreamble
	}
	// Cross-correlate: peak of |conv(samples, reverse(conj(tmpl)))|. The
	// overlap-save convolver transforms the template once and streams the
	// capture through fixed pow2 blocks, so long captures cost
	// O(n log B) with a block size matched to the template instead of one
	// giant FFT of the whole capture.
	r.scratch.rev = resizeComplex(r.scratch.rev, len(tmpl))
	rev := r.scratch.rev
	for i, v := range tmpl {
		rev[len(tmpl)-1-i] = complex(real(v), -imag(v))
	}
	r.scratch.corr = dsp.NewOverlapSave(rev).ApplyFull(r.scratch.corr[:0], samples)
	corr := r.scratch.corr
	// Valid offsets: template fully inside the capture. In the full
	// convolution, offset o corresponds to index o + len(tmpl) - 1.
	best, bestMag := -1, 0.0
	for o := 0; o+len(tmpl) <= len(samples); o++ {
		c := corr[o+len(tmpl)-1]
		m := real(c)*real(c) + imag(c)*imag(c)
		if m > bestMag {
			bestMag = m
			best = o
		}
	}
	if best < 0 {
		return 0, 0, 0, ErrNoPreamble
	}
	tmplEnergy := dsp.Energy(tmpl)
	segEnergy := dsp.Energy(samples[best : best+len(tmpl)])
	if segEnergy == 0 || bestMag < 0.05*tmplEnergy*segEnergy {
		return 0, 0, 0, ErrNoPreamble
	}
	// Phase from the whole-template correlation; CFO from the phase drift
	// between the two template halves.
	seg := samples[best : best+len(tmpl)]
	half := len(tmpl) / 2
	c1 := dsp.DotConj(seg[:half], tmpl[:half])
	c2 := dsp.DotConj(seg[half:], tmpl[half:2*half])
	phase = cmplx.Phase(c1)
	dphi := cmplx.Phase(c2 * cmplx.Conj(c1))
	cfo = dphi / (2 * math.Pi * float64(half))
	return best, cfo, phase, nil
}

// preambleSymbols are the all-zero preamble symbols that open every frame.
var preambleSymbols [frame.PreambleBytes * frame.SymbolsPerByte]int
