package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestReseedRestartsStream(t *testing.T) {
	a := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = a.Uint64()
	}
	a.Reseed(7)
	for i := range first {
		if got := a.Uint64(); got != first[i] {
			t.Fatalf("step %d: got %d want %d after reseed", i, got, first[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/64 identical words", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent1 := New(99)
	parent2 := New(99)
	c1 := parent1.Split()
	c2 := parent2.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("children of identical parents diverged at %d", i)
		}
	}
	// Child differs from parent continuation.
	p := New(99)
	c := p.Split()
	if p.Uint64() == c.Uint64() {
		t.Fatal("child stream should not mirror parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(6)
	const n, trials = 7, 140000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d: count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

// TestNormFloat64MatchesSinAndCos pins the Box-Muller pair computed with
// math.Sincos to the separate math.Sin and math.Cos calls it replaced, bit
// for bit, over 10⁶ draws at each of three seeds.
func TestNormFloat64MatchesSinAndCos(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0x9e3779b97f4a7c15} {
		s, ref := New(seed), New(seed)
		for i := 0; i < 1_000_000; i += 2 {
			var u float64
			for u == 0 {
				u = ref.Float64()
			}
			v := ref.Float64()
			r := math.Sqrt(-2 * math.Log(u))
			want := [2]float64{r * math.Cos(2*math.Pi*v), r * math.Sin(2*math.Pi*v)}
			for k, w := range want {
				if got := s.NormFloat64(); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("seed %#x draw %d: %v, Sin/Cos give %v", seed, i+k, got, w)
				}
			}
		}
	}
}

// TestComplexNormIntoMatchesComplexNorm pins the bulk draw to the scalar
// one bit for bit: 10⁷ complex draws over three seeds and both pair-cache
// parities, in chunks that are mostly not multiples of the kernel's four
// lanes, with the two Sources in the same state after every chunk.
func TestComplexNormIntoMatchesComplexNorm(t *testing.T) {
	chunks := []int{1, 2, 3, 5, 7, 63, 64, 65, 127, 129, 1000, 4099}
	buf := make([]complex128, 4099)
	for _, seed := range []uint64{1, 42, 0x9e3779b97f4a7c15} {
		for _, odd := range []bool{false, true} {
			bulk, ref := New(seed), New(seed)
			if odd {
				bulk.NormFloat64()
				ref.NormFloat64()
			}
			draws := 0
			for c := 0; draws < 1_700_000; c++ {
				dst := buf[:chunks[c%len(chunks)]]
				bulk.ComplexNormInto(dst)
				for i, got := range dst {
					want := ref.ComplexNorm()
					if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
						math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
						t.Fatalf("seed %#x odd=%v draw %d: ComplexNormInto %v, ComplexNorm %v", seed, odd, draws+i, got, want)
					}
				}
				draws += len(dst)
				if !sameState(bulk, ref) {
					t.Fatalf("seed %#x odd=%v after %d draws: state %+v, want %+v", seed, odd, draws, *bulk, *ref)
				}
			}
			bulk.ComplexNormInto(nil)
			if !sameState(bulk, ref) || bulk.Uint64() != ref.Uint64() {
				t.Fatalf("seed %#x odd=%v: streams part after the bulk draws", seed, odd)
			}
		}
	}
}

// sameState reports whether a and b will produce the same stream: the
// same xoshiro words and the same cached deviate, if any.
func sameState(a, b *Source) bool {
	return a.s0 == b.s0 && a.s1 == b.s1 && a.s2 == b.s2 && a.s3 == b.s3 &&
		a.haveGauss == b.haveGauss &&
		(!a.haveGauss || math.Float64bits(a.gauss) == math.Float64bits(b.gauss))
}

func TestComplexNormIntoAllocs(t *testing.T) {
	s := New(3)
	dst := make([]complex128, 1000)
	for _, odd := range []bool{false, true} {
		if odd {
			s.NormFloat64()
		}
		if n := testing.AllocsPerRun(20, func() { s.ComplexNormInto(dst) }); n != 0 {
			t.Fatalf("odd=%v: ComplexNormInto allocates %v times per call, want 0", odd, n)
		}
	}
}

func TestComplexNormPower(t *testing.T) {
	s := New(9)
	const n = 100000
	var p float64
	for i := 0; i < n; i++ {
		z := s.ComplexNorm()
		p += real(z)*real(z) + imag(z)*imag(z)
	}
	p /= n
	if math.Abs(p-1) > 0.02 {
		t.Fatalf("complex normal power = %v, want ~1", p)
	}
}

func TestChipBitBalance(t *testing.T) {
	s := New(10)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		c := s.ChipBit()
		if c != 1 && c != -1 {
			t.Fatalf("ChipBit returned %v", c)
		}
		sum += c
	}
	if math.Abs(sum)/n > 0.01 {
		t.Fatalf("chip bias %v too large", sum/n)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(12)
	p := make([]int, 40)
	s.Perm(p)
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestChooseRespectsWeights(t *testing.T) {
	s := New(13)
	weights := []float64{0.5, 0, 0.25, 0.25}
	counts := make([]int, len(weights))
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Choose(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight bucket chosen %d times", counts[1])
	}
	if math.Abs(float64(counts[0])/n-0.5) > 0.01 {
		t.Fatalf("bucket 0 frequency %v, want ~0.5", float64(counts[0])/n)
	}
}

func TestChoosePanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choose with zero total weight should panic")
		}
	}()
	New(1).Choose([]float64{0, 0})
}

// Property: Intn stays in range for arbitrary seeds and bounds.
func TestQuickIntnRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds yield identical hop-relevant decision streams.
func TestQuickDeterministicDecisions(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 32; i++ {
			if a.Intn(7) != b.Intn(7) || a.Float64() != b.Float64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.NormFloat64()
	}
	_ = sink
}

func BenchmarkComplexNormInto(b *testing.B) {
	s := New(1)
	dst := make([]complex128, 4096)
	for i := 0; i < b.N; i++ {
		s.ComplexNormInto(dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/draw")
}
