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
		"quant=10,ppm=-20,phnoise=-75,cfo=-1500.5",
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
	c, err := ParseSpec("cfo=2e3,ppm=20,phnoise=-80,quant=8")
	if err != nil {
		t.Fatal(err)
	}
	if c.CFOHz != 2e3 || c.PPM != 20 {
		t.Errorf("carrier/clock fields wrong: %+v", c)
	}
	if !c.HasPhaseNoise || c.PhaseNoiseDBc != -80 {
		t.Errorf("phnoise wrong: %+v", c)
	}
	if c.QuantBits != 8 {
		t.Errorf("quantizer bits wrong: %+v", c)
	}
	if got, want := c.String(), "cfo=2000,phnoise=-80,ppm=20,quant=8"; got != want {
		t.Errorf("canonical form %q, want %q", got, want)
	}
}

// TestParseSpecErrors: malformed and out-of-range specs must error (never
// panic) and report the offending entry.
func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"cfo",          // no value
		"cfo=",         // empty value
		"cfo=abc",      // not a number
		"cfo=NaN",      // non-finite
		"cfo=+Inf",     // non-finite
		"bogus=1",      // unknown key
		"cfo=1,,ppm=2", // empty entry
		"ppm=2000",     // over clamp
		"quant=-1",     // negative bits
		"quant=33",     // too many bits
		"quant=8.5",    // not an integer
		"cfo=1,cfo=2",  // duplicate key
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q): expected error, got nil", spec)
		} else if !strings.Contains(err.Error(), "impair:") {
			t.Errorf("ParseSpec(%q): error %q lacks package prefix", spec, err)
		}
	}
	// Keys the grammar does not have, in specs an older grammar accepted:
	// each must fail with an error naming the key, so a stale spec cannot
	// run as a different front end.
	deleted := map[string]string{
		"phase":   "cfo=100,phase=0.5",
		"drift":   "ppm=10,drift=1",
		"iqgain":  "iqgain=1",
		"iqphase": "iqphase=2",
		"dc":      "dc=0.1:0.2",
		"clip":    "quant=8,clip=2",
		"mpath":   "mpath=3:-10:90",
		"drop":    "drop=0.001:30",
		"seed":    "phnoise=-80,seed=42",
	}
	for key, spec := range deleted {
		_, err := ParseSpec(spec)
		if err == nil {
			t.Errorf("ParseSpec(%q): unknown key %q accepted", spec, key)
		} else if !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("ParseSpec(%q): error %q does not name the key %q", spec, err, key)
		}
	}
}

// TestSpecChainStageOrder: the built chain must follow the canonical
// physical order regardless of key order in the spec.
func TestSpecChainStageOrder(t *testing.T) {
	c, err := NewFromSpec("quant=8,ppm=10,phnoise=-80,cfo=100", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{KindCFO, KindPhaseNoise, KindClock, KindQuantizer}
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
	c, err := NewFromSpec("cfo=0,ppm=0,quant=0", 20, 1)
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

// TestSpecChainBadRate: non-positive or non-finite sample rates error.
func TestSpecChainBadRate(t *testing.T) {
	for _, rate := range []float64{0, -1} {
		if _, err := NewFromSpec("cfo=1", rate, 1); err == nil {
			t.Errorf("rate %v: expected error", rate)
		}
	}
}
