package impair

import (
	"strings"
	"testing"
)

// TestParseSpecRoundTrip: canonical String() output must re-parse to the
// identical config.
func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"cfo=2e3",
		"cfo=2e3,ppm=20,phnoise=-80,quant=8",
		"cfo=-1500.5,phase=1.2,ppm=-20,drift=0.5,phnoise=-75,iqgain=0.5,iqphase=2,dc=0.01:-0.02,quant=10,clip=1.2,mpath=0:0:0+7:-6:45,drop=0.001:30,seed=42",
		"mpath=3:-10:90",
		"drop=0.5:1",
		"phnoise=0",
		" cfo = 100 , ppm = 5 ", // whitespace tolerated
	}
	for _, spec := range specs {
		c1, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		s1 := c1.String()
		c2, err := ParseSpec(s1)
		if err != nil {
			t.Fatalf("ParseSpec(String(%q) = %q): %v", spec, s1, err)
		}
		if s2 := c2.String(); s2 != s1 {
			t.Errorf("spec %q: canonical form not a fixed point: %q -> %q", spec, s1, s2)
		}
	}
}

// TestParseSpecValues spot-checks parsed fields.
func TestParseSpecValues(t *testing.T) {
	c, err := ParseSpec("cfo=2e3,phase=0.5,ppm=20,drift=-1,phnoise=-80,iqgain=1,iqphase=-3,dc=0.1:0.2,quant=8,clip=2,mpath=5:-6:90,drop=0.01:25,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if c.CFOHz != 2e3 || c.PhaseRad != 0.5 || c.PPM != 20 || c.DriftPPMPerS != -1 {
		t.Errorf("carrier/clock fields wrong: %+v", c)
	}
	if !c.HasPhaseNoise || c.PhaseNoiseDBc != -80 {
		t.Errorf("phnoise wrong: %+v", c)
	}
	if c.IQGainDB != 1 || c.IQPhaseDeg != -3 || c.DCOffsetI != 0.1 || c.DCOffsetQ != 0.2 {
		t.Errorf("analog fields wrong: %+v", c)
	}
	if c.QuantBits != 8 || c.ClipAmp != 2 {
		t.Errorf("quantizer fields wrong: %+v", c)
	}
	if len(c.Mpath) != 1 || c.Mpath[0] != (MpathTap{Delay: 5, GainDB: -6, PhaseDeg: 90}) {
		t.Errorf("mpath wrong: %+v", c.Mpath)
	}
	if c.DropProb != 0.01 || c.DropMeanLen != 25 {
		t.Errorf("drop wrong: %+v", c)
	}
	if !c.HasSeed || c.Seed != 7 {
		t.Errorf("seed wrong: %+v", c)
	}
}

// TestParseSpecErrors: malformed and out-of-range specs must error (never
// panic) and report the offending entry.
func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"cfo",            // no value
		"cfo=",           // empty value
		"cfo=abc",        // not a number
		"cfo=NaN",        // non-finite
		"cfo=+Inf",       // non-finite
		"bogus=1",        // unknown key
		"cfo=1,,ppm=2",   // empty entry
		"ppm=2000",       // over clamp
		"drift=2e6",      // over clamp
		"iqgain=100",     // absurd imbalance
		"iqphase=120",    // over 90 degrees
		"quant=-1",       // negative bits
		"quant=33",       // too many bits
		"quant=8.5",      // not an integer
		"clip=0",         // non-positive full scale
		"clip=-1",        //
		"mpath=1:0",      // missing field
		"mpath=-1:0:0",   // negative delay
		"mpath=9999:0:0", // delay over cap
		"mpath=1:50:0",   // gain over +40 dB
		"drop=1.5:10",    // probability >= 1
		"drop=0.1:0.5",   // mean length < 1
		"drop=0.1:2e9",   // mean length over cap
		"seed=abc",       // not a uint64
		"seed=-1",        //
		"dc=1:2:3",       // extra pair field -> "2:3" not a number
		"cfo=1,cfo=2",    // duplicate key
		"seed=1,seed=2",  //
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q): expected error, got nil", spec)
		} else if !strings.Contains(err.Error(), "impair:") {
			t.Errorf("ParseSpec(%q): error %q lacks package prefix", spec, err)
		}
	}
}

// TestSpecChainStageOrder: the built chain must follow the canonical
// physical order regardless of key order in the spec.
func TestSpecChainStageOrder(t *testing.T) {
	c, err := NewFromSpec("drop=0.1:5,quant=8,dc=0.1:0,iqgain=1,ppm=10,phnoise=-80,phase=0.1,cfo=100,mpath=1:-3:0", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{KindMultipath, KindCFO, KindPhaseNoise, KindClock, KindIQImbalance, KindDCOffset, KindQuantizer, KindDropout}
	stages := c.stages
	if len(stages) != len(want) {
		t.Fatalf("chain has %d stages, want %d", len(stages), len(want))
	}
	for i, st := range stages {
		if st.Kind() != want[i] {
			t.Errorf("stage %d is %v, want %v", i, st.Kind(), want[i])
		}
	}
}

// TestSpecChainIdentityEmpty: zero-valued keys build no stages, so the
// all-identity spec is bit-transparent by construction.
func TestSpecChainIdentityEmpty(t *testing.T) {
	c, err := NewFromSpec("cfo=0,phase=0,ppm=0,drift=0,iqgain=0,iqphase=0,dc=0:0,quant=0,drop=0:10", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("all-identity spec built %d stages, want 0", c.Len())
	}
	sig := testSignal(256, 11)
	out := c.ProcessAppend(nil, sig)
	for i := range sig {
		if out[i] != sig[i] {
			t.Fatalf("identity spec chain not transparent at sample %d", i)
		}
	}
}

// TestSpecChainSeedOverride: the seed= key overrides the seed argument, and
// different chain seeds give different noise.
func TestSpecChainSeedOverride(t *testing.T) {
	sig := testSignal(2048, 12)
	build := func(spec string, seed uint64) []complex128 {
		c, err := NewFromSpec(spec, 20, seed)
		if err != nil {
			t.Fatal(err)
		}
		return c.ProcessAppend(nil, sig)
	}
	a := build("phnoise=-70", 1)
	b := build("phnoise=-70", 2)
	c := build("phnoise=-70,seed=1", 99) // seed= wins over the argument
	d := build("phnoise=-70", 1)

	differs := func(x, y []complex128) bool {
		for i := range x {
			if x[i] != y[i] {
				return true
			}
		}
		return false
	}
	if !differs(a, b) {
		t.Error("different seeds produced identical phase noise")
	}
	if differs(a, c) {
		t.Error("seed= key did not override the seed argument")
	}
	if differs(a, d) {
		t.Error("same seed not reproducible")
	}
}

// TestSpecChainBadRate: non-positive or non-finite sample rates error.
func TestSpecChainBadRate(t *testing.T) {
	for _, rate := range []float64{0, -1} {
		if _, err := NewFromSpec("cfo=1", rate, 1); err == nil {
			t.Errorf("rate %v: expected error", rate)
		}
	}
}

// TestSpecChainMpathDirect: an explicit 0-delay tap replaces the implicit
// unit direct path instead of stacking on it.
func TestSpecChainMpathDirect(t *testing.T) {
	sig := []complex128{1, 0, 0, 0}

	c1, err := NewFromSpec("mpath=0:-6:0", 20, 1) // direct path at -6 dB only
	if err != nil {
		t.Fatal(err)
	}
	out := c1.ProcessAppend(nil, sig)
	if g := real(out[0]); g > 0.51 || g < 0.49 { // 10^(-6/20) ≈ 0.501
		t.Errorf("explicit direct tap gain %v, want ≈0.501 (implicit unit tap must not stack)", g)
	}

	c2, err := NewFromSpec("mpath=2:-6:0", 20, 1) // echo only: implicit direct
	if err != nil {
		t.Fatal(err)
	}
	out2 := c2.ProcessAppend(nil, sig)
	if out2[0] != 1 {
		t.Errorf("implicit direct path gain %v, want exactly 1", out2[0])
	}
	if g := real(out2[2]); g > 0.51 || g < 0.49 {
		t.Errorf("echo gain %v, want ≈0.501", g)
	}
}
