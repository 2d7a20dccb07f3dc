package tracking

import (
	"math"
	"testing"

	"bhss/internal/dsp"
	"bhss/internal/prng"
	"bhss/internal/pulse"
)

// referenceProcess is Costas.Process as a branching loop over math.Hypot,
// kept as the reference the call-free loop must match bit for bit.
func referenceProcess(c *Costas, x []complex128) {
	maxW := 2 * math.Pi * c.MaxFreq
	for i, v := range x {
		y := v * derotor(c.phase)
		x[i] = y
		ii, qq := real(y), imag(y)
		var err float64
		if ii >= 0 {
			err = qq
		} else {
			err = -qq
		}
		if qq >= 0 {
			err -= ii
		} else {
			err += ii
		}
		mag := math.Hypot(ii, qq)
		if c.avgMag == 0 {
			c.avgMag = mag
		} else {
			c.avgMag += 0.01 * (mag - c.avgMag)
		}
		if c.avgMag > 1e-12 {
			err /= c.avgMag
		}
		if err > 2 {
			err = 2
		} else if err < -2 {
			err = -2
		}
		if err >= 0 {
			c.errEMA += lockRate * (err - c.errEMA)
		} else {
			c.errEMA += lockRate * (-err - c.errEMA)
		}
		c.freq += c.beta * err
		if c.freq > maxW {
			c.freq = maxW
		} else if c.freq < -maxW {
			c.freq = -maxW
		}
		c.phase += c.freq + c.alpha*err
		if c.phase > math.Pi {
			c.phase -= 2 * math.Pi
		} else if c.phase < -math.Pi {
			c.phase += 2 * math.Pi
		}
	}
}

// TestCostasProcessMatchesReference pins Process to referenceProcess: the
// same output samples and the same final loop state, bit for bit, for
// half-sine QPSK at 2 to 128 samples per chip under a carrier offset and
// noise from none to ten times the signal amplitude, fed in one call and in
// uneven chunks. Leading zeros exercise the loop's zero-magnitude start.
func TestCostasProcessMatchesReference(t *testing.T) {
	for _, sps := range []int{2, 5, 16, 128} {
		for _, noise := range []float64{0, 0.3, 1, 10} {
			src := prng.New(uint64(sps)*31 + uint64(noise*10))
			chips := qpskChips(20000/sps+8, uint64(sps))
			x := pulse.ModulateAppend(make([]complex128, 3), chips, pulse.Taps(sps))
			for i := 3; i < len(x); i++ {
				x[i] += src.ComplexNorm() * complex(noise, 0)
			}
			dsp.Mix(x, 1.5e-4, 0.7)
			for _, chunk := range []int{len(x), 1, 97, 4096} {
				want := append([]complex128(nil), x...)
				got := append([]complex128(nil), x...)
				ref, _ := NewCostas(0.0005)
				loop, _ := NewCostas(0.0005)
				ref.SetFrequency(1e-4)
				loop.SetFrequency(1e-4)
				for lo := 0; lo < len(x); lo += chunk {
					hi := min(lo+chunk, len(x))
					referenceProcess(ref, want[lo:hi])
					loop.Process(got[lo:hi])
				}
				for i := range want {
					if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
						t.Fatalf("sps %d noise %v chunk %d: sample %d = %v, reference %v",
							sps, noise, chunk, i, got[i], want[i])
					}
				}
				if *loop != *ref {
					t.Fatalf("sps %d noise %v chunk %d: state %+v, reference %+v", sps, noise, chunk, *loop, *ref)
				}
			}
		}
	}
}

// TestHypotMatchesMathHypot pins hypot to math.Hypot bit for bit over
// signed zeros, subnormals, the largest finite value, infinities, NaN and
// random pairs across the exponent range.
func TestHypotMatchesMathHypot(t *testing.T) {
	nan := math.NaN()
	edges := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022 - 0x1p-1074, 0x1p-1022, 1, -1, 3, -4, 0x1p511, 0x1p-511,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), nan, -nan}
	check := func(p, q float64) {
		got, want := hypot(p, q), math.Hypot(p, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("hypot(%v, %v) = %v (%#x), math.Hypot %v (%#x)",
				p, q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, p := range edges {
		for _, q := range edges {
			check(p, q)
		}
	}
	src := prng.New(3)
	for range 2_000_000 {
		p := src.NormFloat64() * math.Ldexp(1, src.Intn(2100)-1075)
		q := src.NormFloat64() * math.Ldexp(1, src.Intn(2100)-1075)
		check(p, q)
		check(p, p*(1+src.Float64()*1e-3))
		check(src.NormFloat64(), src.NormFloat64())
	}
}
