package jammer

import (
	"strings"
	"testing"

	"bhss/internal/hop"
)

func TestParseSpecRoundTrip(t *testing.T) {
	// Each spec must re-render canonically and re-parse to the same config.
	cases := []struct {
		in    string
		canon string
	}{
		{"jam=bandlimited", "jam=bandlimited"},
		{"jam=bandlimited,bw=2.5,power=1", "jam=bandlimited"},
		{"jam=bandlimited,bw=0.625,power=100", "jam=bandlimited,bw=0.625,power=100"},
		{"jam=hopping,pattern=linear,dwell=2048", "jam=hopping,pattern=linear,dwell=2048"},
		{"jam=hopping,pattern=parabolic,dwell=4096", "jam=hopping"},
		{"jam=reactive,delay=256,sense=1024,power=2", "jam=reactive,delay=256,sense=1024,power=2"},
		{"jam=reactive,memory=true", "jam=reactive,memory=1"},
		{"jam=multitone,sense=1024,delay=0", "jam=multitone,delay=0,sense=1024"},
		{"jam=adaptive,memory=0,delay=0", "jam=adaptive,delay=0,memory=0"},
		{"jam=adaptive", "jam=adaptive"},
		{"power=2 , jam=bandlimited , bw=5", "jam=bandlimited,bw=5,power=2"},
	}
	for _, tc := range cases {
		c, err := ParseSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.in, err)
		}
		if got := c.String(); got != tc.canon {
			t.Fatalf("ParseSpec(%q).String() = %q, want %q", tc.in, got, tc.canon)
		}
		c2, err := ParseSpec(c.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", c.String(), err)
		}
		if c2 != c {
			t.Fatalf("round trip of %q: %+v != %+v", tc.in, c2, c)
		}
	}
}

func TestParseSpecDefaults(t *testing.T) {
	c, err := ParseSpec("jam=reactive")
	if err != nil {
		t.Fatal(err)
	}
	if c.Delay != 512 || c.Sense != 512 || c.Power != 1 || c.Memory {
		t.Fatalf("reactive defaults wrong: %+v", c)
	}
	a, err := ParseSpec("jam=adaptive")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Memory {
		t.Fatal("adaptive must default to memory=1")
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",                             // no kind
		"delay=3",                      // missing jam=
		"jam=",                         // empty kind
		"jam=laser",                    // unknown kind
		"jam=reactive,jam=adaptive",    // duplicate jam
		"jam=reactive,delay=1,delay=2", // duplicate key
		"jam=reactive,bw=5",            // key for another kind
		"jam=bandlimited,delay=5",      // follower key on static kind
		"jam=multitone,dwell=1024",     // hopping key on a follower
		"jam=bandlimited,zap=1",        // unknown key
		"jam=bandlimited,bw",           // not key=value
		"jam=bandlimited,bw=",          // empty value
		"jam=bandlimited,bw=NaN",       // non-finite
		"jam=bandlimited,bw=-1",        // non-positive
		"jam=bandlimited,power=-2",     // negative power
		"jam=reactive,sense=100",       // not a power of two
		"jam=reactive,sense=32",        // too small
		"jam=reactive,delay=-1",        // negative delay
		"jam=hopping,pattern=zigzag",   // unknown pattern
		"jam=hopping,dwell=0",          // dwell too short
		"jam=bandlimited,,power=2",     // empty entry
		"jam=reactive,memory=maybe",    // non-boolean
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", spec)
		}
	}
	// Kinds and keys the grammar does not have, in specs an older grammar
	// accepted: each must fail with an error naming it, so a stale spec
	// cannot run as a different adversary.
	deleted := map[string]string{
		"tone":   "jam=tone,freq=0.1",
		"sweep":  "jam=sweep,span=10,period=65536",
		"freq":   "freq=1.25,jam=tone",
		"span":   "span=10,jam=sweep",
		"period": "period=65536,jam=sweep",
		"duty":   "jam=bandlimited,bw=2.5,duty=0.5:4096",
		"tones":  "jam=multitone,tones=4,delay=256",
		"seed":   "jam=bandlimited,seed=42",
	}
	for name, spec := range deleted {
		_, err := ParseSpec(spec)
		if err == nil {
			t.Errorf("ParseSpec(%q): unknown %q accepted", spec, name)
		} else if !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("ParseSpec(%q): error %q does not name %q", spec, err, name)
		}
	}
}

func TestSpecBuildKinds(t *testing.T) {
	// direct, when set, builds the same jammer with its constructor at
	// 20 MS/s and seed 7; the spec must emit the same samples. The
	// power-100 rows are the command-line forms of bhssjam's jammers at
	// 20 dB over the signal, the first of them its default.
	hopping := func(p hop.Pattern, dwell int, power float64) func() (Source, error) {
		return func() (Source, error) {
			dist, err := hop.NewDistribution(p, hop.DefaultBandwidths())
			if err != nil {
				return nil, err
			}
			return NewHopping(dist, 20, dwell, power, 7)
		}
	}
	cases := []struct {
		spec    string
		txAware bool
		power   float64
		direct  func() (Source, error)
	}{
		{"jam=bandlimited,bw=2.5,power=100", false, 100,
			func() (Source, error) { return NewBandlimited(2.5/20, 100, 7) }},
		{"jam=bandlimited,bw=0.625", false, 1,
			func() (Source, error) { return NewBandlimited(0.625/20, 1, 7) }},
		{"jam=hopping,pattern=exponential", false, 1, hopping(hop.Exponential, 4096, 1)},
		{"jam=hopping,pattern=linear,dwell=65536,power=100", false, 100, hopping(hop.Linear, 65536, 100)},
		{"jam=reactive,delay=256,sense=1024,power=2", true, 2, nil},
		{"jam=multitone", true, 1, nil},
		{"jam=adaptive,power=4", true, 4, nil},
	}
	for _, tc := range cases {
		src, err := NewFromSpec(tc.spec, 20, 7)
		if err != nil {
			t.Fatalf("NewFromSpec(%q): %v", tc.spec, err)
		}
		if _, ok := src.(TxAware); ok != tc.txAware {
			t.Fatalf("%q: TxAware = %v, want %v", tc.spec, ok, tc.txAware)
		}
		if src.Power() != tc.power {
			t.Fatalf("%q: power %v, want %v", tc.spec, src.Power(), tc.power)
		}
		if tc.direct == nil {
			if out := src.Emit(256); len(out) != 256 {
				t.Fatalf("%q: Emit returned %d samples", tc.spec, len(out))
			}
			continue
		}
		want, err := tc.direct()
		if err != nil {
			t.Fatalf("%q: direct constructor: %v", tc.spec, err)
		}
		// 20 blocks of 4096 samples, bhssjam's block size, cross every
		// 65536-sample dwell above.
		for b := 0; b < 20; b++ {
			got, exp := src.Emit(4096), want.Emit(4096)
			if len(got) != len(exp) {
				t.Fatalf("%q block %d: %d samples, direct %d", tc.spec, b, len(got), len(exp))
			}
			for i := range got {
				if got[i] != exp[i] {
					t.Fatalf("%q block %d sample %d: %v, direct %v", tc.spec, b, i, got[i], exp[i])
				}
			}
		}
	}
}

func TestSpecBuildValidatesRates(t *testing.T) {
	if _, err := NewFromSpec("jam=bandlimited,bw=30", 20, 1); err == nil {
		t.Fatal("bw above the sample rate should fail at build")
	}
	if _, err := NewFromSpec("jam=bandlimited", 0, 1); err == nil {
		t.Fatal("zero sample rate should fail")
	}
	if _, err := (SpecConfig{}).Build(20, 1); err == nil {
		t.Fatal("zero config (no kind) should fail")
	}
}

func TestSpecCanonicalFormIsStable(t *testing.T) {
	// The README example must stay parseable and canonical-stable: this is
	// the public grammar contract.
	const example = "jam=reactive,delay=256,sense=1024,power=2"
	c, err := ParseSpec(example)
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != example {
		t.Fatalf("canonical form of the documented example drifted: %q", c.String())
	}
	if !strings.Contains(c.String(), "jam=reactive") {
		t.Fatal("canonical form must lead with the kind")
	}
}
