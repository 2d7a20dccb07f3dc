package impair

import (
	"math"
	"math/cmplx"
	"testing"

	"bhss/internal/alloctest"
	"bhss/internal/obs"
	"bhss/internal/prng"
)

// testSignal returns a deterministic pseudo-random complex tone-ish signal.
func testSignal(n int, seed uint64) []complex128 {
	src := prng.New(seed)
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(src.NormFloat64(), src.NormFloat64()) * 0.5
	}
	return out
}

// allStages builds one of every stage with non-trivial parameters.
func allStages() []Stage {
	return []Stage{
		newMultipath([]complex128{1, 0, complex(0.2, -0.1)}),
		newCFO(1e-4, 0.3),
		newPhaseNoise(0.01, 42),
		newClock(50, 10, 20e6),
		newIQImbalance(0.5, 2*math.Pi/180),
		newDCOffset(0.01, -0.02),
		newQuantizer(10, 1.5),
		newDropout(0.001, 20, 7),
	}
}

// TestKindNamesMatchObs pins the obs snapshot naming to the impair Kind
// enum: the two packages declare the stage list independently (an import
// would be cyclic), so this test is the contract.
func TestKindNamesMatchObs(t *testing.T) {
	if obs.NumImpairStages != NumKinds {
		t.Fatalf("obs.NumImpairStages = %d, impair.NumKinds = %d", obs.NumImpairStages, NumKinds)
	}
	for k := 0; k < NumKinds; k++ {
		if got, want := obs.ImpairStageName(k), Kind(k).String(); got != want {
			t.Errorf("stage %d: obs name %q, impair name %q", k, got, want)
		}
	}
}

// TestStageKinds checks every constructed stage reports its own kind and
// that all kinds are covered.
func TestStageKinds(t *testing.T) {
	seen := make(map[Kind]bool)
	for _, st := range allStages() {
		seen[st.Kind()] = true
	}
	for k := 0; k < NumKinds; k++ {
		if !seen[Kind(k)] {
			t.Errorf("allStages covers no stage of kind %v", Kind(k))
		}
	}
}

// TestBlockSizeInvariance is the core streaming property: processing a
// stream in arbitrary block sizes must produce bit-identical output to
// processing it in one call, for every stage and for a full chain.
func TestBlockSizeInvariance(t *testing.T) {
	sig := testSignal(4096, 1)
	blockings := [][]int{{4096}, {1024, 1024, 1024, 1024}, {1, 4095}, {37, 1000, 3, 3056}}

	// Every run builds fresh stages: state persists across calls.
	run := func(i int, blocks []int) []complex128 {
		st := allStages()[i]
		var out []complex128
		off := 0
		for _, b := range blocks {
			out = st.ProcessAppend(out, sig[off:off+b])
			off += b
		}
		return out
	}

	for i, st := range allStages() {
		ref := run(i, blockings[0])
		for _, blocks := range blockings[1:] {
			got := run(i, blocks)
			if len(got) != len(ref) {
				t.Fatalf("%v: blocks %v: %d samples, want %d", st.Kind(), blocks, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("%v: blocks %v: sample %d = %v, want %v", st.Kind(), blocks, i, got[i], ref[i])
				}
			}
		}
	}

	// Same property for a whole chain.
	runChain := func(blocks []int) []complex128 {
		chain := NewChain(allStages()...)
		var out []complex128
		off := 0
		for _, b := range blocks {
			out = chain.ProcessAppend(out, sig[off:off+b])
			off += b
		}
		return out
	}
	ref := runChain(blockings[0])
	for _, blocks := range blockings[1:] {
		got := runChain(blocks)
		if len(got) != len(ref) {
			t.Fatalf("chain: blocks %v: %d samples, want %d", blocks, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("chain: blocks %v: sample %d differs", blocks, i)
			}
		}
	}
}

// TestChainMatchesSequentialStages verifies the ping/pong buffering inside
// Chain.ProcessAppend against naive stage-by-stage application.
func TestChainMatchesSequentialStages(t *testing.T) {
	sig := testSignal(2000, 2)

	ref := append([]complex128(nil), sig...)
	for _, st := range allStages() {
		ref = st.ProcessAppend(nil, ref)
	}

	chain := NewChain(allStages()...)
	got := chain.ProcessAppend(nil, sig)

	if len(got) != len(ref) {
		t.Fatalf("chain emitted %d samples, sequential %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("sample %d: chain %v, sequential %v", i, got[i], ref[i])
		}
	}
}

// TestEmptyChainTransparent: nil chains, empty chains and identity-parameter
// stages must be bit-transparent.
func TestEmptyChainTransparent(t *testing.T) {
	sig := testSignal(512, 3)
	check := func(name string, out []complex128) {
		t.Helper()
		if len(out) != len(sig) {
			t.Fatalf("%s: %d samples, want %d", name, len(out), len(sig))
		}
		for i := range out {
			if out[i] != sig[i] {
				t.Fatalf("%s: sample %d = %v, want %v (not bit-transparent)", name, i, out[i], sig[i])
			}
		}
	}

	var nilChain *Chain
	check("nil chain", nilChain.ProcessAppend(nil, sig))
	check("empty chain", NewChain().ProcessAppend(nil, sig))

	// Identity-parameter stages: zero CFO/phase rotates by exactly 1+0i,
	// zero IQ imbalance and DC offset are exact no-ops, and a
	// zero-probability dropout never fires. (A zero-ppm clock stage is
	// sample-exact too but trails the stream by its 2-sample lookahead,
	// so it is checked separately below; ParseSpec builds no clock stage
	// for ppm=0, so spec-built identity chains are fully transparent.)
	identity := NewChain(
		newCFO(0, 0),
		newIQImbalance(0, 0),
		newDCOffset(0, 0),
		newDropout(0, 10, 1),
	)
	check("identity chain", identity.ProcessAppend(nil, sig))

	// Zero-ppm clock: every emitted sample hits an input sample with
	// mu = 0 exactly, so the output is a bit-exact copy minus the
	// interpolator's pending lookahead tail.
	clk := newClock(0, 0, 20e6)
	out := clk.ProcessAppend(nil, sig)
	if len(out) != len(sig)-2 {
		t.Fatalf("zero-ppm clock emitted %d samples, want %d", len(out), len(sig)-2)
	}
	for i := range out {
		if out[i] != sig[i] {
			t.Fatalf("zero-ppm clock: sample %d = %v, want %v", i, out[i], sig[i])
		}
	}
}

// TestCFOStage checks the oscillator against the closed form e^{j(2πfn+φ)}.
func TestCFOStage(t *testing.T) {
	const f, phi = 3.7e-4, 0.9
	st := newCFO(f, phi)
	n := 3000
	sig := make([]complex128, n)
	for i := range sig {
		sig[i] = 1
	}
	out := st.ProcessAppend(nil, sig)
	for i := range out {
		want := cmplx.Exp(complex(0, 2*math.Pi*f*float64(i)+phi))
		if cmplx.Abs(out[i]-want) > 1e-9 {
			t.Fatalf("sample %d: %v, want %v", i, out[i], want)
		}
	}
}

// TestClockStageResamplingRate: a +ppm receiver clock must emit ~(1+ppm·1e-6)
// samples per input sample.
func TestClockStageResamplingRate(t *testing.T) {
	const ppm = 200.0
	st := newClock(ppm, 0, 20e6)
	n := 100000
	sig := testSignal(n, 4)
	out := st.ProcessAppend(nil, sig)
	want := float64(n) * (1 + ppm*1e-6)
	if math.Abs(float64(len(out))-want) > 4 {
		t.Fatalf("emitted %d samples for %d inputs, want ~%.0f", len(out), n, want)
	}
}

// TestClockStageInterpolation: resampling a pure complex exponential must
// reproduce the delayed exponential to cubic-interpolator accuracy.
func TestClockStageInterpolation(t *testing.T) {
	const ppm = 100.0
	const f = 0.01 // cycles/sample, well below Nyquist for cubic accuracy
	st := newClock(ppm, 0, 20e6)
	n := 20000
	sig := make([]complex128, n)
	for i := range sig {
		sig[i] = cmplx.Exp(complex(0, 2*math.Pi*f*float64(i)))
	}
	out := st.ProcessAppend(nil, sig)
	step := 1 / (1 + ppm*1e-6)
	for i := 0; i < len(out); i++ {
		// Output sample i reads input position i·step (pos starts at 1
		// with one zero history sample prepended, so input index i·step).
		pos := float64(i) * step
		want := cmplx.Exp(complex(0, 2*math.Pi*f*pos))
		if cmplx.Abs(out[i]-want) > 1e-4 {
			t.Fatalf("sample %d: %v, want %v (|err| %g)", i, out[i], want, cmplx.Abs(out[i]-want))
		}
	}
}

// TestQuantizer covers rounding, clipping and NaN handling.
func TestQuantizer(t *testing.T) {
	st := newQuantizer(3, 1.0) // delta = 0.25
	cases := []struct{ in, want float64 }{
		{0, 0},
		{0.13, 0.25},
		{0.12, 0},
		{-0.88, -1.0}, // rounds to -0.75? -0.88/0.25 = -3.52 → -4 → -1.0
		{2.5, 1.0},    // clipped
		{-3, -1.0},
		{math.NaN(), 0},
		{math.Inf(1), 1.0},
		{math.Inf(-1), -1.0},
	}
	for _, c := range cases {
		out := st.ProcessAppend(nil, []complex128{complex(c.in, c.in)})
		if real(out[0]) != c.want || imag(out[0]) != c.want {
			t.Errorf("quant(%v) = %v, want %v", c.in, out[0], complex(c.want, c.want))
		}
	}
}

// TestMultipathAgainstNaiveConvolution cross-checks the delay line against
// direct convolution.
func TestMultipathAgainstNaiveConvolution(t *testing.T) {
	taps := []complex128{complex(0.9, 0.1), 0, complex(-0.3, 0.2), complex(0.1, 0)}
	st := newMultipath(taps)
	sig := testSignal(300, 5)
	out := st.ProcessAppend(nil, sig)
	for n := range sig {
		var want complex128
		for d, g := range taps {
			if n-d >= 0 {
				want += g * sig[n-d]
			}
		}
		if cmplx.Abs(out[n]-want) > 1e-12 {
			t.Fatalf("sample %d: %v, want %v", n, out[n], want)
		}
	}
}

// TestDropoutDeterminismAndCounter: same seed ⇒ same zeroed positions, and
// the dropped counter matches the number of zeroed samples.
func TestDropoutDeterminismAndCounter(t *testing.T) {
	sig := testSignal(50000, 6)
	a := newDropout(0.002, 30, 99)
	b := newDropout(0.002, 30, 99)
	outA := a.ProcessAppend(nil, sig)
	outB := b.ProcessAppend(nil, sig)
	zeroed := 0
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("same seed diverged at sample %d", i)
		}
		if outA[i] == 0 && sig[i] != 0 {
			zeroed++
		}
	}
	if a.dropped == 0 {
		t.Fatal("dropout with p=0.002 over 50k samples zeroed nothing")
	}
	if a.dropped != int64(zeroed) {
		t.Fatalf("dropped counter %d, observed %d zeroed samples", a.dropped, zeroed)
	}
}

// TestPhaseNoiseSeedDeterminism: same seed ⇒ bit-identical output; different
// seed ⇒ different output.
func TestPhaseNoiseSeedDeterminism(t *testing.T) {
	sig := testSignal(4096, 7)
	a := newPhaseNoise(0.02, 5).ProcessAppend(nil, sig)
	b := newPhaseNoise(0.02, 5).ProcessAppend(nil, sig)
	c := newPhaseNoise(0.02, 6).ProcessAppend(nil, sig)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical phase noise")
	}
}

// TestIQImbalancePower: gain imbalance must split symmetrically — the I rail
// gains what the Q rail loses.
func TestIQImbalance(t *testing.T) {
	st := newIQImbalance(1.0, 0) // 1 dB imbalance, no phase error
	out := st.ProcessAppend(nil, []complex128{complex(1, 1)})
	gi, gq := real(out[0]), imag(out[0])
	if math.Abs(20*math.Log10(gi/gq)-1.0) > 1e-9 {
		t.Fatalf("I/Q gain ratio %.6f dB, want 1.0", 20*math.Log10(gi/gq))
	}
	if math.Abs(gi*gq-1) > 1e-12 {
		t.Fatalf("gain split not symmetric: gi·gq = %v", gi*gq)
	}
}

// TestChainObsRecording: metrics must see the samples without perturbing
// the output stream.
func TestChainObsRecording(t *testing.T) {
	sig := testSignal(2048, 8)
	plain := NewChain(allStages()...)
	want := plain.ProcessAppend(nil, sig)

	p := obs.NewPipeline()
	observed := NewChain(allStages()...)
	observed.SetObserver(&p.Impair)
	got := observed.ProcessAppend(nil, sig)

	if len(got) != len(want) {
		t.Fatalf("observed chain emitted %d samples, plain %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("observation changed sample %d", i)
		}
	}
	if p.Impair.In.Load() != int64(len(sig)) {
		t.Errorf("impair.in = %d, want %d", p.Impair.In.Load(), len(sig))
	}
	if p.Impair.Out.Load() != int64(len(got)) {
		t.Errorf("impair.out = %d, want %d", p.Impair.Out.Load(), len(got))
	}
	if p.Impair.Stage[KindCFO].Load() == 0 {
		t.Error("impair.stage.cfo counter did not advance")
	}
	if p.Impair.ChainNS.Count() != 1 {
		t.Errorf("impair.chain_ns count = %d, want 1", p.Impair.ChainNS.Count())
	}
	// Snapshot must expose the per-stage counters under the documented names.
	snap := p.Snapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Name == "impair.stage.cfo" && c.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Error("snapshot has no positive impair.stage.cfo counter")
	}
}

// TestChainZeroAlloc: every stage and the whole chain must be allocation-free
// in steady state, with and without an observer attached.
func TestChainZeroAlloc(t *testing.T) {
	sig := testSignal(1024, 9)
	// dst sized generously: the clock stage emits a fraction more samples.
	dst := make([]complex128, 0, 2*len(sig))

	for _, st := range allStages() {
		st := st
		alloctest.AssertZero(t, st.Kind().String(), func() {
			dst = st.ProcessAppend(dst[:0], sig)
		})
	}

	chain := NewChain(allStages()...)
	alloctest.AssertZero(t, "chain", func() {
		dst = chain.ProcessAppend(dst[:0], sig)
	})

	p := obs.NewPipeline()
	chain.SetObserver(&p.Impair)
	alloctest.AssertZero(t, "chain+obs", func() {
		dst = chain.ProcessAppend(dst[:0], sig)
	})

	alloctest.AssertZero(t, "chain.Process", func() {
		_ = chain.Process(sig)
	})
}
