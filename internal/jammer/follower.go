// Estimator-follower jammers: adversaries that overhear the transmitted
// waveform, estimate its instantaneous occupied bandwidth with the same
// Welch machinery the receiver uses, and answer with a matched waveform
// after a bounded reaction delay τ. The delay is the knob of the arms race
// (experiment.ArmsRaceSweep): at τ→0 a follower tracks every hop and
// randomized bandwidth hopping buys nothing — the KTH claim for frequency
// hopping (arXiv:1512.06645) — while at large τ every jam lands on a stale
// bandwidth and the receiver's filters remove it.
//
// The sensing core (follower) is shared by three adversaries that differ in
// what they synthesize from an estimate:
//
//   - Reactive: matched band-limited AWGN at the estimated bandwidth — the
//     classic reactive jammer of §2 (Wilhelm et al.).
//   - Multitone: four constant-envelope tones placed on the strongest bins
//     of the estimated chip spectrum, total power split evenly — the optimal
//     tone-placement adversary of arXiv:2602.06816 under a power budget.
//   - Adaptive: learns the defender's hop-bandwidth distribution from its
//     observation history and transmits a mixture of band-limited noise
//     components with power allocated proportionally to the learned
//     occupancy — a budget-constrained Bayes responder.
//
// All three are streaming and bit-deterministic: the output depends only on
// the construction parameters, the seed and the absolute sample positions of
// what they overheard — never on how the stream was chunked into Jam calls.
package jammer

import (
	"fmt"
	"math"
	"sort"

	"bhss/internal/obs"
	"bhss/internal/spectral"
)

// occupiedFraction is the power fraction used for the follower's occupied-
// bandwidth estimate, matching the receiver's own sensing convention.
const occupiedFraction = 0.95

// TxAware is a jammer that overhears the transmitted signal. Jam consumes
// the clean over-the-air samples (what the adversary's antenna picks up,
// before the victim receiver's noise) and returns the time-aligned jamming
// waveform. NewBurst marks an off-air gap between bursts: sensing state is
// realigned to the next burst's first sample, and unless the jammer keeps
// Memory of its tuning it falls silent until a fresh estimate matures.
type TxAware interface {
	Source
	// Jam returns len(tx) jamming samples aligned to tx.
	Jam(tx []complex128) []complex128
	// NewBurst marks a burst boundary in the overheard stream.
	NewBurst()
	// SetObserver attaches follower metrics (nil detaches).
	SetObserver(m *obs.JamMetrics)
}

// tuning is one waveform design decision produced by a matured sense window.
type tuning struct {
	// bw is the occupied-bandwidth estimate behind the decision.
	bw float64
	// freqs are the multitone placements (normalized, sorted ascending).
	freqs []float64
	// mix is the adaptive power allocation over bandwidth bins.
	mix []mixComponent
}

// designer is the per-adversary policy plugged into the follower core: how
// an estimate becomes a waveform.
type designer interface {
	// observe folds a matured window's PSD and occupied bandwidth into the
	// policy state and returns the new tuning, or false when the current
	// waveform should stand (no retune scheduled).
	observe(psd []float64, bw float64) (tuning, bool)
	// build constructs the emitter for a tuning; seed makes it
	// deterministic. It must not disturb the currently transmitting
	// emitter before the caller swaps it in.
	build(t tuning, power float64, seed uint64) Source
	// clearTuning forgets the current waveform target (burst boundary
	// without memory) so the next estimate schedules a fresh retune.
	clearTuning()
	// resetState additionally clears learned history (full rewind).
	resetState()
}

// pendingRetune is a scheduled waveform change: the estimate matured at
// applyAt−ReactionDelay and causality delays its effect until applyAt.
type pendingRetune struct {
	applyAt int64
	tun     tuning
	seed    uint64
}

// follower is the shared sensing core: it slices the overheard stream into
// non-overlapping sense windows on an absolute sample clock, estimates each
// window's PSD and occupied bandwidth, and swaps the transmit waveform
// ReactionDelay samples after a window that changed the policy's mind. The
// absolute clock makes every state transition independent of how callers
// chunk the stream.
type follower struct {
	// ReactionDelay τ in samples: the jam answering the window observed up
	// to time t starts at t + τ. Read-only after construction.
	ReactionDelay int
	// SenseWindow is how many samples the jammer integrates per bandwidth
	// estimate (a power of two ≥ 64). Read-only after construction.
	SenseWindow int
	// PowerBudget is the jammer's average transmit power once tuned.
	// Read-only after construction.
	PowerBudget float64
	// Memory carries the tuned waveform across NewBurst boundaries: a
	// returning target that never changed its bandwidth is jammed from the
	// first sample of its next burst, with no reaction lag. Against a
	// hopping target the remembered tuning is stale and the receiver's
	// filters remove it.
	Memory bool

	des     designer
	est     *spectral.Reusable
	psd     []float64
	seed0   uint64
	seedCur uint64

	clock    int64 // absolute index of the next overheard sample
	winStart int64 // absolute index of buf[0]
	buf      []complex128
	bufLen   int

	cur     Source // transmitting emitter; nil = silent
	pending []pendingRetune

	met *obs.JamMetrics
}

func (f *follower) init(des designer, reactionDelay, senseWindow int, power float64, seed uint64) error {
	if reactionDelay < 0 {
		return fmt.Errorf("jammer: negative reaction delay")
	}
	if senseWindow < 64 || senseWindow&(senseWindow-1) != 0 {
		return fmt.Errorf("jammer: sense window %d must be a power of two >= 64", senseWindow)
	}
	if power < 0 {
		return fmt.Errorf("jammer: negative power")
	}
	est, err := spectral.Welch(senseWindow / 2).Reusable()
	if err != nil {
		return err
	}
	f.ReactionDelay = reactionDelay
	f.SenseWindow = senseWindow
	f.PowerBudget = power
	f.des = des
	f.est = est
	f.psd = make([]float64, senseWindow/2)
	f.seed0 = seed
	f.seedCur = seed
	f.buf = make([]complex128, senseWindow)
	return nil
}

// SetObserver attaches follower metrics (nil detaches). Recording never
// alters the emitted waveform.
func (f *follower) SetObserver(m *obs.JamMetrics) { f.met = m }

// Power returns the configured transmit power budget.
func (f *follower) Power() float64 { return f.PowerBudget }

// Emit produces n samples with nothing overheard — the jammer senses
// silence (holds its tuning) and keeps transmitting its current waveform.
func (f *follower) Emit(n int) []complex128 {
	return f.Jam(make([]complex128, n))
}

// Jam consumes the next chunk of the overheard transmit stream and returns
// the time-aligned jamming waveform. Output is bit-identical for any
// chunking of the same stream.
func (f *follower) Jam(tx []complex128) []complex128 {
	out := make([]complex128, len(tx))
	pos := 0
	for pos < len(tx) {
		abs := f.clock + int64(pos)
		for len(f.pending) > 0 && f.pending[0].applyAt <= abs {
			f.applyRetune(f.pending[0])
			f.pending = f.pending[1:]
		}
		// The segment ends at the earliest upcoming event: chunk end,
		// current sense window completing, or a pending retune applying.
		end := len(tx)
		if fill := pos + (f.SenseWindow - f.bufLen); fill < end {
			end = fill
		}
		if len(f.pending) > 0 {
			if next := int(f.pending[0].applyAt - f.clock); next < end {
				end = next
			}
		}
		if f.cur != nil {
			copy(out[pos:end], f.cur.Emit(end-pos))
		}
		f.bufLen += copy(f.buf[f.bufLen:], tx[pos:end])
		if f.bufLen == f.SenseWindow {
			f.mature(f.winStart + int64(f.SenseWindow))
			f.bufLen = 0
			f.winStart += int64(f.SenseWindow)
		}
		pos = end
	}
	f.clock += int64(len(tx))
	return out
}

// mature estimates one full sense window and, when the policy changes its
// mind, schedules a retune at winEnd + ReactionDelay.
func (f *follower) mature(winEnd int64) {
	if err := f.est.PSDInto(f.psd, f.buf); err != nil {
		return
	}
	if f.met != nil {
		f.met.Estimates.Inc()
	}
	var total float64
	for _, p := range f.psd {
		total += p
	}
	bw := spectral.OccupiedBandwidth(f.psd, occupiedFraction)
	// A window with no energy (the target is off the air) holds the last
	// tuning: there is nothing to estimate and retuning to a zero-power
	// phantom would only reveal the jammer's sensing cadence.
	if bw <= 0 || total/float64(len(f.psd)) < 1e-30 {
		if f.met != nil {
			f.met.Holds.Inc()
		}
		return
	}
	if bw > 1 {
		bw = 1
	}
	if f.met != nil {
		f.met.LastBW.Store(bw)
	}
	tun, changed := f.des.observe(f.psd, bw)
	if !changed {
		return
	}
	f.seedCur = f.seedCur*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	f.pending = append(f.pending, pendingRetune{
		applyAt: winEnd + int64(f.ReactionDelay),
		tun:     tun,
		seed:    f.seedCur,
	})
}

func (f *follower) applyRetune(p pendingRetune) {
	if src := f.des.build(p.tun, f.PowerBudget, p.seed); src != nil {
		f.cur = src
		if f.met != nil {
			f.met.Retunes.Inc()
		}
	}
}

// NewBurst marks an off-air gap: the partial sense window is discarded (it
// would straddle the gap), pending retunes are dropped (their estimates
// describe a transmission that has ended), and without Memory the jammer
// falls silent until a fresh estimate matures in the next burst.
func (f *follower) NewBurst() {
	f.bufLen = 0
	f.winStart = f.clock
	f.pending = f.pending[:0]
	if !f.Memory {
		f.cur = nil
		f.des.clearTuning()
	}
}

// Reset rewinds the jammer to its exact construction state: clock, sensing
// buffers, pending retunes, seed chain and all learned policy state. A
// replay of the same Jam/NewBurst sequence reproduces the output stream
// bit-for-bit.
func (f *follower) Reset() {
	f.clock = 0
	f.winStart = 0
	f.bufLen = 0
	f.pending = f.pending[:0]
	f.cur = nil
	f.seedCur = f.seed0
	f.des.resetState()
}

// Reactive senses the transmitted signal's occupied bandwidth and answers
// with matched band-limited noise after a reaction delay τ — the strong
// attacker of §2 (Wilhelm et al.'s reactive jammer). A retune is scheduled
// only when the estimate actually changes, so the waveform is stable while
// the target sits still and the obs Retunes counter counts real follows.
type Reactive struct {
	follower
	d reactiveDesign
}

type reactiveDesign struct {
	targetBW float64
}

// retuneDeadband is the relative estimate change below which Reactive keeps
// its waveform: Welch estimates of a noisy window jitter by a bin or two,
// and the paper's hop set is octave-spaced, so a ±25% deadband suppresses
// estimator noise while catching every real bandwidth hop.
const retuneDeadband = 1.25

func (d *reactiveDesign) observe(_ []float64, bw float64) (tuning, bool) {
	if d.targetBW > 0 {
		ratio := bw / d.targetBW
		if ratio < retuneDeadband && ratio > 1/retuneDeadband {
			return tuning{}, false
		}
	}
	d.targetBW = bw
	return tuning{bw: bw}, true
}

func (d *reactiveDesign) build(t tuning, power float64, seed uint64) Source {
	src, err := NewBandlimited(t.bw, power, seed)
	if err != nil {
		return nil
	}
	return src
}

func (d *reactiveDesign) clearTuning() { d.targetBW = 0 }
func (d *reactiveDesign) resetState()  { d.targetBW = 0 }

// NewReactive returns a reactive jammer. senseWindow must be a power of two
// >= 64 (half of it is the PSD segment length).
func NewReactive(reactionDelay, senseWindow int, power float64, seed uint64) (*Reactive, error) {
	r := &Reactive{}
	if err := r.follower.init(&r.d, reactionDelay, senseWindow, power, seed); err != nil {
		return nil, err
	}
	return r, nil
}

// multitoneTones is the Multitone jammer's tone count. Even the smallest
// sense window (64 samples, a 32-bin PSD) leaves room for four picks with
// their ±1-bin exclusion zones.
const multitoneTones = 4

// Multitone places four constant-envelope tones on the strongest bins of
// the estimated chip spectrum, splitting its power budget evenly — the
// optimal power-constrained tone placement against a matched-filter
// receiver when the spectrum is known (arXiv:2602.06816). Tones are
// retuned like Reactive's noise: only when the estimated placement
// changes, applied one reaction delay after the estimate matured.
type Multitone struct {
	follower
	d multitoneDesign
}

type multitoneDesign struct {
	target []float64
}

func (d *multitoneDesign) observe(psd []float64, bw float64) (tuning, bool) {
	freqs := peakFreqs(psd, multitoneTones)
	if len(freqs) == 0 {
		return tuning{}, false
	}
	if equalFloat64s(freqs, d.target) {
		return tuning{}, false
	}
	d.target = append(d.target[:0], freqs...)
	return tuning{bw: bw, freqs: freqs}, true
}

func (d *multitoneDesign) build(t tuning, power float64, _ uint64) Source {
	return newToneSet(t.freqs, power)
}

func (d *multitoneDesign) clearTuning() { d.target = d.target[:0] }
func (d *multitoneDesign) resetState()  { d.target = d.target[:0] }

// NewMultitone returns a four-tone follower jammer.
func NewMultitone(reactionDelay, senseWindow int, power float64, seed uint64) (*Multitone, error) {
	m := &Multitone{}
	if err := m.follower.init(&m.d, reactionDelay, senseWindow, power, seed); err != nil {
		return nil, err
	}
	return m, nil
}

// peakFreqs greedily picks the n strongest PSD bins with a ±1-bin exclusion
// zone around each pick (so tones spread over the occupied band instead of
// stacking on one lobe) and returns their center frequencies, sorted
// ascending. Bins with no power are never picked, so fewer than n tones may
// return. The PSD is in un-shifted order.
func peakFreqs(psd []float64, n int) []float64 {
	k := len(psd)
	blocked := make([]bool, k)
	freqs := make([]float64, 0, n)
	for len(freqs) < n {
		best, bestV := -1, 0.0
		for i, p := range psd {
			if !blocked[i] && p > bestV {
				best, bestV = i, p
			}
		}
		if best < 0 {
			break
		}
		blocked[best] = true
		blocked[(best+1)%k] = true
		blocked[(best-1+k)%k] = true
		f := float64(best) / float64(k)
		if f >= 0.5 {
			f -= 1
		}
		freqs = append(freqs, f)
	}
	sort.Float64s(freqs)
	return freqs
}

func equalFloat64s(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//bhss:allow(floateq) exact bin frequencies (best/k): both sides come from the same integer-ratio construction, so change detection must be exact, not tolerant
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// toneSet is the multitone emitter: len(freqs) phase-continuous tones at
// equal power summing to the budget. Phases accumulate without reduction so
// the stream is bit-identical under any chunking.
type toneSet struct {
	freqs  []float64
	phases []float64
	amp    float64
	power  float64
}

func newToneSet(freqs []float64, power float64) *toneSet {
	ts := &toneSet{
		freqs:  append([]float64(nil), freqs...),
		phases: make([]float64, len(freqs)),
		power:  power,
	}
	if len(freqs) > 0 && power > 0 {
		ts.amp = math.Sqrt(power / float64(len(freqs)))
	}
	return ts
}

func (ts *toneSet) Power() float64 { return ts.power }

func (ts *toneSet) Reset() {
	for i := range ts.phases {
		ts.phases[i] = 0
	}
}

func (ts *toneSet) Emit(n int) []complex128 {
	out := make([]complex128, n)
	if ts.amp == 0 {
		return out
	}
	for k, fq := range ts.freqs {
		ph := ts.phases[k]
		step := 2 * math.Pi * fq
		for i := range out {
			out[i] += complex(ts.amp*math.Cos(ph), ts.amp*math.Sin(ph))
			ph += step
		}
		ts.phases[k] = ph
	}
	return out
}

// adaptiveBins is the number of octave bandwidth bins the adaptive jammer
// learns over: bin i covers two-sided bandwidths in (2^-(i+1), 2^-i], which
// spans the paper's whole hop set (10 MHz → bw 0.5 lands in bin 1,
// 0.15625 MHz → bw 0.0078 in the last bin) at 20 MS/s.
const adaptiveBins = 7

// adaptiveBinFor maps an occupied-bandwidth estimate to its octave bin.
func adaptiveBinFor(bw float64) int {
	idx := int(math.Floor(-math.Log2(bw)))
	if idx < 0 {
		idx = 0
	}
	if idx >= adaptiveBins {
		idx = adaptiveBins - 1
	}
	return idx
}

// adaptiveBinBW is the bin's representative bandwidth (geometric center).
func adaptiveBinBW(i int) float64 { return math.Exp2(-(float64(i) + 0.5)) }

// Adaptive learns the defender's hop-bandwidth distribution: every matured
// sense window increments an octave-bandwidth histogram (the observation
// history persists across bursts — that is the learning), and the transmit
// waveform is a mixture of band-limited noise components, one per observed
// bin, with the power budget allocated proportionally to the learned
// occupancy. Memory defaults to true: the learned mixture keeps jamming
// across burst gaps, which is the whole point of having learned it.
type Adaptive struct {
	follower
	d adaptiveDesign
}

type mixComponent struct {
	bin    int
	weight float64
}

type adaptiveDesign struct {
	counts [adaptiveBins]int64
	pool   [adaptiveBins]*Bandlimited // unit-power components, reseeded per build
}

func (d *adaptiveDesign) observe(_ []float64, bw float64) (tuning, bool) {
	d.counts[adaptiveBinFor(bw)]++
	var total int64
	for _, c := range d.counts {
		total += c
	}
	mix := make([]mixComponent, 0, adaptiveBins)
	for i, c := range d.counts {
		if c > 0 {
			mix = append(mix, mixComponent{bin: i, weight: float64(c) / float64(total)})
		}
	}
	// Every observation shifts the allocation, so the mixture always
	// retunes — the adaptive jammer converges instead of locking on.
	return tuning{bw: bw, mix: mix}, true
}

func (d *adaptiveDesign) build(t tuning, power float64, seed uint64) Source {
	m := &mixture{
		comps:  make([]*Bandlimited, 0, len(t.mix)),
		scales: make([]complex128, 0, len(t.mix)),
		power:  power,
	}
	for _, mc := range t.mix {
		if d.pool[mc.bin] == nil {
			// Representative bandwidths are always in (0, 1], so this
			// cannot fail; a unit-power component is scaled per mixture.
			b, err := NewBandlimited(adaptiveBinBW(mc.bin), 1, 0)
			if err != nil {
				return nil
			}
			d.pool[mc.bin] = b
		}
		comp := d.pool[mc.bin]
		comp.Reseed(seed + uint64(mc.bin+1)*0xbf58476d1ce4e5b9)
		m.comps = append(m.comps, comp)
		m.scales = append(m.scales, complex(math.Sqrt(power*mc.weight), 0))
	}
	return m
}

func (d *adaptiveDesign) clearTuning() {}

func (d *adaptiveDesign) resetState() {
	d.counts = [adaptiveBins]int64{}
	// Pool entries are reseeded on every build, so their stream state
	// needs no rewind here.
}

// NewAdaptive returns a power-budgeted adaptive jammer with Memory enabled.
func NewAdaptive(reactionDelay, senseWindow int, power float64, seed uint64) (*Adaptive, error) {
	a := &Adaptive{}
	if err := a.follower.init(&a.d, reactionDelay, senseWindow, power, seed); err != nil {
		return nil, err
	}
	a.Memory = true
	return a, nil
}

// mixture sums independently seeded unit-power band-limited components,
// each scaled so the total average power equals the learned allocation.
type mixture struct {
	comps  []*Bandlimited
	scales []complex128
	power  float64
}

func (m *mixture) Power() float64 { return m.power }

func (m *mixture) Reset() {}

func (m *mixture) Emit(n int) []complex128 {
	out := make([]complex128, n)
	for i, c := range m.comps {
		s := m.scales[i]
		for k, v := range c.Emit(n) {
			out[k] += s * v
		}
	}
	return out
}
