package impair_test

import (
	"bytes"
	"runtime"
	"testing"

	"bhss/internal/core"
	"bhss/internal/impair"
	"bhss/internal/prng"
)

// mildSpecs are impairment levels a real receiver is expected to ride
// through: CFO well inside the Costas pull-in range, clock offsets that
// drift far less than a chip over a burst (the receiver keeps ideal chip
// timing, DESIGN.md §2), quantization above the noise floor.
var mildSpecs = []string{
	"cfo=100",
	"ppm=2",
	"phnoise=-100",
	"quant=12",
	"iqgain=0.1,iqphase=0.5",
	"dc=0.001:0.001",
	"cfo=100,phnoise=-100,quant=12,iqgain=0.1",
	"mpath=0:0:0+3:-25:40,cfo=100",
}

// TestPropertyMildImpairmentRoundTrip is the headline property: for random
// payloads and every mild impairment level, encode → impair → decode
// recovers the exact payload. This pins the claim that the impairment
// layer models *recoverable* hardware, not a lossy channel, at these
// settings.
func TestPropertyMildImpairmentRoundTrip(t *testing.T) {
	cfg := core.DefaultConfig(7)
	tx, err := core.NewTransmitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(0xfeed)
	for trial := 0; trial < 4; trial++ {
		payload := make([]byte, 8+int(src.Uint64()%24))
		for i := range payload {
			payload[i] = byte(src.Uint64())
		}
		burst, err := tx.EncodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		// A real capture window extends past the burst; the tail pad keeps
		// the resampler's interpolator lookahead from clipping the final
		// symbol.
		capture := append(append([]complex128(nil), burst.Samples...), make([]complex128, 64)...)
		for _, spec := range mildSpecs {
			chain, err := impair.NewFromSpec(spec, cfg.SampleRate, 0x1234+uint64(trial))
			if err != nil {
				t.Fatalf("spec %q: %v", spec, err)
			}
			impaired := chain.ProcessAppend(nil, capture)
			rx, err := core.NewReceiver(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The transmitter's frame counter has advanced past this
			// burst; replay the receiver to the matching frame.
			for rx.FrameCounter() < tx.FrameCounter()-1 {
				rx.SkipFrame()
			}
			got, _, err := rx.DecodeBurst(impaired)
			if err != nil {
				t.Fatalf("trial %d spec %q: decode: %v", trial, spec, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("trial %d spec %q: payload corrupted: got %x want %x",
					trial, spec, got, payload)
			}
		}
	}
}

// TestPropertySeedDeterminism: two chains built from the same spec and
// seed produce bit-identical output, for every stochastic stage kind.
func TestPropertySeedDeterminism(t *testing.T) {
	specs := []string{
		"phnoise=-80",
		"drop=0.001:200",
		"cfo=2e3,ppm=20,phnoise=-80,quant=8,drop=0.0005:100",
	}
	sig := testBurst(t, 8192)
	for _, spec := range specs {
		a, err := impair.NewFromSpec(spec, 20, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := impair.NewFromSpec(spec, 20, 42)
		if err != nil {
			t.Fatal(err)
		}
		outA := a.ProcessAppend(nil, sig)
		outB := b.ProcessAppend(nil, sig)
		if len(outA) != len(outB) {
			t.Fatalf("spec %q: lengths differ: %d vs %d", spec, len(outA), len(outB))
		}
		for i := range outA {
			if outA[i] != outB[i] {
				t.Fatalf("spec %q: outputs diverge at %d", spec, i)
			}
		}
	}
}

// TestPropertyGOMAXPROCSInvariance: chain output must not depend on the
// scheduler. The chain is documented single-goroutine; this test fails
// loudly if parallelism (and with it nondeterministic float reduction
// order) ever sneaks into a stage.
func TestPropertyGOMAXPROCSInvariance(t *testing.T) {
	const spec = "cfo=2e3,ppm=20,phnoise=-80,iqgain=0.5,iqphase=2,dc=0.01:0.02,quant=8,drop=0.001:100,mpath=0:0:0+5:-20:30"
	sig := testBurst(t, 16384)
	run := func(procs int) []complex128 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		chain, err := impair.NewFromSpec(spec, 20, 99)
		if err != nil {
			t.Fatal(err)
		}
		return chain.ProcessAppend(nil, sig)
	}
	ref := run(1)
	for _, procs := range []int{2, 4, runtime.NumCPU()} {
		got := run(procs)
		if len(got) != len(ref) {
			t.Fatalf("GOMAXPROCS=%d: length %d, want %d", procs, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("GOMAXPROCS=%d: diverges at sample %d", procs, i)
			}
		}
	}
}

// TestPropertyIdentityEndToEnd: a chain with every stage present but
// parameterized to identity must be bit-transparent through the full
// encode path (not just on synthetic noise).
func TestPropertyIdentityEndToEnd(t *testing.T) {
	cfg := core.DefaultConfig(3)
	tx, err := core.NewTransmitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := tx.EncodeFrame([]byte("identity must be exact"))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := impair.NewFromSpec("cfo=0,phase=0,ppm=0,drift=0,iqgain=0,iqphase=0,dc=0:0,quant=0,drop=0:0", cfg.SampleRate, 1)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Len() != 0 {
		t.Fatalf("all-identity spec built %d stages, want 0", chain.Len())
	}
	out := chain.ProcessAppend(nil, burst.Samples)
	for i := range out {
		if out[i] != burst.Samples[i] {
			t.Fatalf("identity chain altered sample %d", i)
		}
	}
}

func testBurst(t *testing.T, n int) []complex128 {
	t.Helper()
	src := prng.New(0xabcd)
	sig := make([]complex128, n)
	for i := range sig {
		sig[i] = complex(src.NormFloat64(), src.NormFloat64())
	}
	return sig
}
