package tracking

import (
	"math"
	"math/cmplx"
	"testing"

	"bhss/internal/prng"
)

// qpskStream generates unit-power QPSK at one sample per symbol, rotated
// by a carrier offset of cfo cycles/sample, with optional complex AWGN of
// per-component standard deviation noiseStd.
func qpskStream(n int, cfo, noiseStd float64, seed uint64) []complex128 {
	src := prng.New(seed)
	out := make([]complex128, n)
	inv := 1 / math.Sqrt2
	for i := range out {
		s := complex(float64(2*int(src.Uint64()&1)-1)*inv,
			float64(2*int(src.Uint64()>>1&1)-1)*inv)
		s += complex(src.NormFloat64()*noiseStd, src.NormFloat64()*noiseStd)
		out[i] = s * cmplx.Exp(complex(0, 2*math.Pi*cfo*float64(i)))
	}
	return out
}

// TestCostasPullInRange pins the loop's measured capture behavior, the
// basis of the lock-threshold table in DESIGN.md §11. For a second-order
// loop at bandwidth B the pull-in range is a small multiple of B; the
// receiver's own maxTrackedCFO (2e-4 cycles/sample at loopBW 5e-4) sits
// safely inside the measured boundary.
func TestCostasPullInRange(t *testing.T) {
	cases := []struct {
		loopBW float64
		cfo    float64
		locks  bool
	}{
		// Receiver operating point: loopBW 5e-4.
		{0.0005, 0, true},
		{0.0005, 1e-5, true},
		{0.0005, 1e-4, true},
		{0.0005, 3e-4, true},  // pull-in boundary is past 3e-4...
		{0.0005, 3e-3, false}, // ...but well before 3e-3
		{0.0005, 1e-2, false},
		// A 10x wider loop pulls in 10x more (and pays 10x the noise
		// bandwidth — why the receiver does not just widen the loop).
		{0.005, 3e-3, true},
		{0.005, 1e-2, true},
		{0.005, 3e-2, false},
	}
	for _, tc := range cases {
		loop, err := NewCostas(tc.loopBW)
		if err != nil {
			t.Fatal(err)
		}
		loop.Process(qpskStream(20000, tc.cfo, 0, 1))
		ferr := math.Abs(loop.Frequency() - tc.cfo)
		if tc.locks {
			if ferr > 1e-5 {
				t.Errorf("bw=%g cfo=%g: freq error %.3g, want lock (<1e-5)",
					tc.loopBW, tc.cfo, ferr)
			}
			if q := loop.LockQuality(); q < 0.9 {
				t.Errorf("bw=%g cfo=%g: LockQuality %.3f, want >= 0.9 when locked",
					tc.loopBW, tc.cfo, q)
			}
		} else {
			// An unlocked loop's frequency estimate collapses toward zero
			// rather than tracking the offset.
			if ferr < tc.cfo/2 {
				t.Errorf("bw=%g cfo=%g: freq error %.3g unexpectedly small for an unlocked loop",
					tc.loopBW, tc.cfo, ferr)
			}
			if q := loop.LockQuality(); q >= DefaultLockThreshold {
				t.Errorf("bw=%g cfo=%g: LockQuality %.3f >= threshold %.2f while spinning",
					tc.loopBW, tc.cfo, q, DefaultLockThreshold)
			}
		}
	}
}

// TestCostasLockQualityBands pins the two measured LockQuality bands that
// calibrate DefaultLockThreshold: locked loops settle above 0.9 (clean) /
// 0.84 (heavy noise), spinning loops plateau near 0.75 — the QPSK
// decision-directed error of a uniformly rotating constellation averages
// ~0.5 of the normalized amplitude, it does not rail. The threshold must
// sit between the bands.
func TestCostasLockQualityBands(t *testing.T) {
	run := func(cfo, noise float64) float64 {
		loop, err := NewCostas(0.0005)
		if err != nil {
			t.Fatal(err)
		}
		loop.Process(qpskStream(20000, cfo, noise, 7))
		return loop.LockQuality()
	}
	lockedClean := run(1e-4, 0.05)
	lockedNoisy := run(1e-4, 0.15)
	spinClean := run(5e-3, 0.05)
	spinNoisy := run(5e-3, 0.15)
	t.Logf("locked: clean %.3f noisy %.3f; spinning: clean %.3f noisy %.3f (threshold %.2f)",
		lockedClean, lockedNoisy, spinClean, spinNoisy, DefaultLockThreshold)
	for _, q := range []float64{lockedClean, lockedNoisy} {
		if q <= DefaultLockThreshold {
			t.Errorf("locked LockQuality %.3f <= threshold %.2f", q, DefaultLockThreshold)
		}
	}
	for _, q := range []float64{spinClean, spinNoisy} {
		if q >= DefaultLockThreshold {
			t.Errorf("spinning LockQuality %.3f >= threshold %.2f", q, DefaultLockThreshold)
		}
	}
	if lockedNoisy-spinClean < 0.05 {
		t.Errorf("lock bands too close to threshold reliably: locked %.3f vs spinning %.3f",
			lockedNoisy, spinClean)
	}
}

// TestCoarseCFOInRangeAccuracy: the 4th-power estimator must land within
// one FFT bin of a known offset, and the range restriction must reject
// offsets outside it instead of aliasing them in.
func TestCoarseCFOInRangeAccuracy(t *testing.T) {
	const n = 8192
	binCFO := 1.0 / (4 * float64(n)) // frequency resolution after ^4
	for _, cfo := range []float64{0, 5e-5, 1e-4, -1.5e-4} {
		sig := qpskStream(n, cfo, 0.05, 3)
		got := CoarseCFOInRange(make([]complex128, n), sig, 2e-4)
		if math.Abs(got-cfo) > binCFO {
			t.Errorf("cfo=%g: estimate %g off by more than a bin (%g)", cfo, got, binCFO)
		}
	}
	// Out-of-range offset: the restricted search must not report a large
	// spurious value (it clamps to the search window).
	sig := qpskStream(n, 5e-3, 0.05, 3)
	if got := CoarseCFOInRange(make([]complex128, n), sig, 2e-4); math.Abs(got) > 2e-4+binCFO {
		t.Errorf("restricted search returned %g, beyond its own window", got)
	}
}
