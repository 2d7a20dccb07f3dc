package jammer

import (
	"math"
	"math/cmplx"
	"testing"

	"bhss/internal/dsp"
	"bhss/internal/obs"
)

// narrowband returns n samples of band-limited noise at the given two-sided
// bandwidth — the synthetic transmit stream the convergence tests sense.
func narrowband(t *testing.T, bw float64, n int, seed uint64) []complex128 {
	t.Helper()
	src, err := NewBandlimited(bw, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return src.Emit(n)
}

// TestReactiveConvergesWithinSensePlusDelay pins the arms-race contract:
// after the target hops its bandwidth at a sense-window boundary, the
// follower transmits the retuned waveform no later than senseWindow +
// reactionDelay samples past the hop — and not a sample earlier than the
// delay allows (no retune mid-delay).
func TestReactiveConvergesWithinSensePlusDelay(t *testing.T) {
	const (
		sense = 512
		delay = 768
		hopAt = 4 * sense // hop on a window boundary
	)
	r, err := NewReactive(delay, sense, 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	var met obs.JamMetrics
	r.SetObserver(&met)

	tx := narrowband(t, 0.5, hopAt, 777)
	tx = append(tx, narrowband(t, 0.04, 6*sense, 778)...)

	// Phase 1: feed everything up to the hop. The initial tune applies at
	// sense+delay; estimator jitter inside the deadband must not retune.
	r.Jam(tx[:hopAt])
	if got := met.Retunes.Load(); got != 1 {
		t.Fatalf("retunes before the hop = %d, want exactly 1 (initial tune)", got)
	}
	if got := met.Estimates.Load(); got != hopAt/sense {
		t.Fatalf("estimates = %d, want %d", got, hopAt/sense)
	}

	// Phase 2: feed the post-hop stream one sample at a time; the first
	// retuned sample is exactly the one at hop + sense + delay (window
	// maturity + τ), with no waveform change anywhere mid-delay.
	deadline := sense + delay
	for i := 0; i < 6*sense; i++ {
		r.Jam(tx[hopAt+i : hopAt+i+1])
		retunes := met.Retunes.Load()
		switch {
		case i < deadline && retunes != 1:
			t.Fatalf("retuned at sample %d after the hop, before sense+delay=%d", i, deadline)
		case i >= deadline && retunes != 2:
			t.Fatalf("still %d retunes at sample %d after the hop, want retune at %d",
				retunes, i, deadline)
		}
	}
	if got := met.LastBW.Load(); got <= 0 || got > 0.12 {
		t.Fatalf("converged bandwidth estimate %v, want near 0.04", got)
	}
}

// TestReactiveHoldsThroughSilence pins the degenerate no-energy case: a
// window with nothing in it must hold the previous tuning — counted as a
// hold, never a retune, never a NaN — and the jammer keeps transmitting.
func TestReactiveHoldsThroughSilence(t *testing.T) {
	const sense = 512
	r, err := NewReactive(0, sense, 4, 22)
	if err != nil {
		t.Fatal(err)
	}
	var met obs.JamMetrics
	r.SetObserver(&met)

	r.Jam(narrowband(t, 0.3, 4*sense, 91))
	tuned := met.Retunes.Load()
	if tuned == 0 {
		t.Fatal("follower never tuned on an active target")
	}

	out := r.Jam(make([]complex128, 3*sense))
	if got := met.Holds.Load(); got != 3 {
		t.Fatalf("holds = %d, want 3 (one per silent window)", got)
	}
	if got := met.Retunes.Load(); got != tuned {
		t.Fatalf("silence caused %d retunes", got-tuned)
	}
	for i, v := range out {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			t.Fatalf("non-finite sample at %d during silence: %v", i, v)
		}
	}
	// The jammer holds its last estimate and keeps transmitting at budget.
	if p := dsp.Power(out); math.Abs(p-4)/4 > 0.3 {
		t.Fatalf("held-tuning power %v, want ~4", p)
	}
}

// TestReactiveSilentFromScratch: a follower that has only ever heard
// silence must stay silent (every window is a hold, nothing to remember).
func TestReactiveSilentFromScratch(t *testing.T) {
	r, err := NewReactive(16, 256, 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	var met obs.JamMetrics
	r.SetObserver(&met)
	out := r.Jam(make([]complex128, 2048))
	for i, v := range out {
		if v != 0 {
			t.Fatalf("jammed at %d with no signal ever sensed", i)
		}
	}
	if got := met.Holds.Load(); got != 8 {
		t.Fatalf("holds = %d, want 8", got)
	}
	if met.Retunes.Load() != 0 || met.LastBW.Load() != 0 {
		t.Fatal("silence must not tune the follower")
	}
}

// TestMultitoneSitsOnSpectralPeaks: the multitone follower's tones must
// land inside the sensed signal's occupied band.
func TestMultitoneSitsOnSpectralPeaks(t *testing.T) {
	const sense = 512
	m, err := NewMultitone(0, sense, 4, 24)
	if err != nil {
		t.Fatal(err)
	}
	tx := narrowband(t, 0.1, 16*sense, 92)
	jam := m.Jam(tx)
	active := jam[2*sense:]
	if p := dsp.Power(active); math.Abs(p-4)/4 > 0.05 {
		t.Fatalf("multitone power %v, want 4 (exact budget split)", p)
	}
	// All jam energy concentrated where the signal is: the occupied band
	// of the jam must be no wider than the target's.
	bw := measureBW(active, t)
	if bw > 0.2 {
		t.Fatalf("multitone occupied bandwidth %v, want inside the 0.1 target band", bw)
	}
}

// TestAdaptiveLearnsHopDistribution: after observing a target that spends
// 3/4 of its airtime narrow and 1/4 wide, the adaptive jammer's mixture
// must allocate most of its budget to the narrow octave.
func TestAdaptiveLearnsHopDistribution(t *testing.T) {
	const sense = 512
	a, err := NewAdaptive(0, sense, 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	var met obs.JamMetrics
	a.SetObserver(&met)
	// 12 narrow windows, 4 wide windows, alternating in bursts.
	for i := 0; i < 4; i++ {
		a.Jam(narrowband(t, 0.04, 3*sense, uint64(100+i)))
		a.Jam(narrowband(t, 0.5, sense, uint64(200+i)))
	}
	counts := a.d.counts
	narrowBin := adaptiveBinFor(0.04)
	wideBin := adaptiveBinFor(0.5)
	if counts[narrowBin] <= counts[wideBin] {
		t.Fatalf("learned histogram %v: narrow bin %d not dominant over wide bin %d",
			counts, narrowBin, wideBin)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != met.Estimates.Load()-met.Holds.Load() {
		t.Fatalf("histogram total %d != energetic estimates %d",
			total, met.Estimates.Load()-met.Holds.Load())
	}
	// The emitted waveform carries the full budget once tuned.
	out := a.Emit(8 * sense)
	if p := dsp.Power(out); math.Abs(p-4)/4 > 0.25 {
		t.Fatalf("adaptive mixture power %v, want ~4", p)
	}
}

// TestFollowerBurstBoundarySemantics: NewBurst drops pending reactions and,
// without Memory, silences the jammer until a fresh estimate matures.
func TestFollowerBurstBoundarySemantics(t *testing.T) {
	const sense, delay = 512, 256
	r, err := NewReactive(delay, sense, 4, 26)
	if err != nil {
		t.Fatal(err)
	}
	tx := narrowband(t, 0.2, 4*sense, 93)
	r.Jam(tx)
	r.NewBurst()
	head := r.Jam(tx[:sense+delay-1])
	for i, v := range head {
		if v != 0 {
			t.Fatalf("memoryless follower jammed at %d after a burst boundary", i)
		}
	}
}
