package jammer

import (
	"math/cmplx"
	"testing"
)

// FuzzParseJamSpec pins the spec grammar contract: ParseSpec never panics,
// and for every accepted spec the canonical form is a fixed point —
// ParseSpec(c.String()) reproduces c exactly and String is stable across the
// round trip. Accepted configs must also Build into a jammer that emits only
// finite samples (or fail Build with a clean error). Run locally with
//
//	go test ./internal/jammer -run=FuzzParseJamSpec -fuzz=FuzzParseJamSpec -fuzztime=30s
//
// CI runs it in the fuzz-smoke job with -fuzzminimizetime 10x so crashers
// shrink to readable reproducers before they are reported.
func FuzzParseJamSpec(f *testing.F) {
	seeds := []string{
		"jam=bandlimited",
		"jam=bandlimited,bw=0.625,power=100",
		"jam=bandlimited,bw=20,power=0",
		"jam=hopping,pattern=exponential,dwell=1",
		"jam=hopping,pattern=parabolic,dwell=65536,power=100",
		"jam=hopping,pattern=linear,dwell=2048",
		"jam=reactive,delay=256,sense=1024,power=2",
		"jam=reactive,memory=1",
		"jam=multitone,sense=1024",
		"jam=adaptive,delay=0,memory=0",
		"jam=,bw=",
		"jam=reactive,bw=0.5",
		"power=2,,jam=reactive",
		"jam=bandlimited,bw=1e309",
		"jam=multitone,sense=64,delay=16777216",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseSpec(spec)
		if err != nil {
			return // rejected specs only need to not panic
		}
		canon := c.String()
		c2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not re-parse: %v",
				canon, spec, err)
		}
		if c2 != c {
			t.Fatalf("round trip of %q: %+v != %+v", spec, c2, c)
		}
		if again := c2.String(); again != canon {
			t.Fatalf("String not stable: %q then %q", canon, again)
		}
		src, err := c.Build(20, 1)
		if err != nil {
			return // out-of-band configs may fail Build, but cleanly
		}
		for i, v := range src.Emit(256) {
			if cmplx.IsNaN(v) || cmplx.IsInf(v) {
				t.Fatalf("spec %q emits non-finite sample at %d: %v", spec, i, v)
			}
		}
	})
}
