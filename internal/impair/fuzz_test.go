package impair

import (
	"testing"
)

// FuzzParseSpec throws arbitrary strings at the spec parser: it must never
// panic, only return errors. Whenever it accepts a spec, the canonical form
// must be a fixed point (Parse ∘ String ≡ id on canonical forms) and the
// chain must build and process a block without panicking — the runtime
// evidence behind the panicpolicy contract.
func FuzzParseSpec(f *testing.F) {
	f.Add("")
	f.Add("cfo=2e3,ppm=20,phnoise=-80,quant=8")
	f.Add("quant=6,phnoise=-70,ppm=80,cfo=8e3")
	f.Add("cfo=-1.5e3,phnoise=0,ppm=-0.25,quant=1")
	f.Add("cfo=NaN")
	f.Add("quant=99,ppm=1e9")
	f.Add("=,=,=")
	f.Add("ppm=1000,quant=24")
	f.Add("cfo=1e-300,phnoise=-1e21,ppm=-1000")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		canon := cfg.String()
		cfg2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not re-parse: %v", canon, spec, err)
		}
		if canon2 := cfg2.String(); canon2 != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, canon2)
		}
		chain, err := cfg.Chain(20, 1)
		if err != nil {
			t.Fatalf("accepted spec %q does not build a chain: %v", spec, err)
		}
		sig := make([]complex128, 64)
		for i := range sig {
			sig[i] = complex(float64(i%7)*0.1, -float64(i%5)*0.1)
		}
		chain.ProcessAppend(nil, sig)
	})
}
