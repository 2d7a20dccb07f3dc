package hop

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPatternNames(t *testing.T) {
	for p, want := range map[Pattern]string{
		Fixed: "fixed", Linear: "linear", Exponential: "exponential",
		Parabolic: "parabolic", Pattern(9): "unknown",
	} {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", p, p.String())
		}
	}
	for _, p := range []Pattern{Fixed, Linear, Exponential, Parabolic} {
		if got, err := ParsePattern(p.String()); err != nil || got != p {
			t.Fatalf("ParsePattern(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, name := range []string{"unknown", "zigzag", "", "Linear"} {
		_, err := ParsePattern(name)
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Fatalf("ParsePattern(%q): error %v does not name the input", name, err)
		}
	}
}

func TestDistributionsValidate(t *testing.T) {
	for _, p := range []Pattern{Fixed, Linear, Exponential, Parabolic} {
		d, err := NewDistribution(p, DefaultBandwidths())
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
}

func TestNewDistributionErrors(t *testing.T) {
	if _, err := NewDistribution(Linear, nil); err == nil {
		t.Fatal("empty set should error")
	}
	if _, err := NewDistribution(Linear, []float64{1, -2}); err == nil {
		t.Fatal("negative bandwidth should error")
	}
	if _, err := NewDistribution(Pattern(42), DefaultBandwidths()); err == nil {
		t.Fatal("unknown pattern should error")
	}
}

// Table 1 of the paper: per-bandwidth probabilities of the three patterns.
func TestTable1Linear(t *testing.T) {
	d, _ := NewDistribution(Linear, DefaultBandwidths())
	for i, p := range d.Probs {
		if math.Abs(p-1.0/7.0) > 1e-12 {
			t.Fatalf("linear prob[%d] = %v, want 1/7", i, p)
		}
	}
}

func TestTable1Exponential(t *testing.T) {
	d, _ := NewDistribution(Exponential, DefaultBandwidths())
	// Paper's Table 1: 50.4, 25.2, 12.6, 6.3, 3.1, 1.6, 0.8 percent.
	want := []float64{0.504, 0.252, 0.126, 0.063, 0.031, 0.016, 0.008}
	for i := range want {
		if math.Abs(d.Probs[i]-want[i]) > 0.002 {
			t.Fatalf("exponential prob[%d] = %v, want ~%v", i, d.Probs[i], want[i])
		}
	}
}

func TestTable1Parabolic(t *testing.T) {
	d, _ := NewDistribution(Parabolic, DefaultBandwidths())
	want := []float64{0.271, 0.158, 0.063, 0.001, 0.013, 0.220, 0.274}
	for i := range want {
		if math.Abs(d.Probs[i]-want[i]) > 1e-9 {
			t.Fatalf("parabolic prob[%d] = %v, want %v", i, d.Probs[i], want[i])
		}
	}
}

// §6.4.1 average bandwidths: linear 2.83 MHz, exponential 6.72 MHz,
// parabolic 3.77 MHz.
func TestAverageBandwidthMatchesPaper(t *testing.T) {
	cases := []struct {
		p    Pattern
		want float64
	}{{Linear, 2.83}, {Exponential, 6.72}, {Parabolic, 3.77}}
	for _, c := range cases {
		d, _ := NewDistribution(c.p, DefaultBandwidths())
		if got := d.AverageBandwidth(); math.Abs(got-c.want) > 0.02 {
			t.Fatalf("%v average bandwidth %v MHz, paper says %v", c.p, got, c.want)
		}
	}
}

// §6.4.1 average throughputs: linear 354 kb/s, exponential 840 kb/s,
// parabolic 471 kb/s, with spreading factor 8.
func TestAverageThroughputMatchesPaper(t *testing.T) {
	cases := []struct {
		p    Pattern
		want float64 // Mb/s
	}{{Linear, 0.354}, {Exponential, 0.840}, {Parabolic, 0.471}}
	for _, c := range cases {
		d, _ := NewDistribution(c.p, DefaultBandwidths())
		if got := d.AverageThroughput(8); math.Abs(got-c.want) > 0.005 {
			t.Fatalf("%v throughput %v Mb/s, paper says %v", c.p, got, c.want)
		}
	}
}

func TestFixedSelectsMaxBandwidth(t *testing.T) {
	d, _ := NewDistribution(Fixed, []float64{2, 10, 5})
	if d.Probs[1] != 1 {
		t.Fatalf("fixed pattern probs = %v, want all mass on 10", d.Probs)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	d, _ := NewDistribution(Linear, DefaultBandwidths())
	a, err := NewSchedule(d, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewSchedule(d, 42, 4)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("tx and rx schedules diverged at hop %d", i)
		}
	}
}

func TestScheduleMatchesDistribution(t *testing.T) {
	d, _ := NewDistribution(Exponential, DefaultBandwidths())
	s, _ := NewSchedule(d, 7, 4)
	const n = 200000
	counts := make([]float64, len(d.Probs))
	for i := 0; i < n; i++ {
		counts[s.Next()]++
	}
	for i, want := range d.Probs {
		got := counts[i] / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("empirical prob[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestScheduleErrors(t *testing.T) {
	d, _ := NewDistribution(Linear, DefaultBandwidths())
	if _, err := NewSchedule(d, 1, 0); err == nil {
		t.Fatal("symbolsPerHop 0 should error")
	}
	bad := Distribution{Bandwidths: []float64{1}, Probs: []float64{0.5}}
	if _, err := NewSchedule(bad, 1, 4); err == nil {
		t.Fatal("invalid distribution should error")
	}
}

func TestPlanHops(t *testing.T) {
	d, _ := NewDistribution(Linear, DefaultBandwidths())
	s, _ := NewSchedule(d, 3, 4)
	plan := s.PlanHops(10) // ceil(10/4) = 3 hops
	if len(plan) != 3 {
		t.Fatalf("plan length %d, want 3", len(plan))
	}
	for _, idx := range plan {
		if idx < 0 || idx >= len(d.Bandwidths) {
			t.Fatalf("hop index %d out of range", idx)
		}
	}
	if s.PlanHops(0) != nil {
		t.Fatal("zero symbols should plan no hops")
	}
}

func TestOptimizeMaximinBeatsUniformOnAsymmetricGame(t *testing.T) {
	// Payoff favoring extreme offsets (a crude stand-in for the SNR bound):
	// advantage grows with |log(bp/bj)|.
	payoff := func(bp, bj float64) float64 {
		return math.Abs(math.Log10(bp / bj))
	}
	bws := DefaultBandwidths()
	opt, err := OptimizeMaximin(bws, payoff, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	uniform, _ := NewDistribution(Linear, bws)
	optScore := MinExpectedPayoff(opt, bws, payoff)
	uniScore := MinExpectedPayoff(uniform, bws, payoff)
	if optScore < uniScore {
		t.Fatalf("optimizer (%v) worse than uniform (%v)", optScore, uniScore)
	}
	// For |log-ratio| payoffs the optimum loads the edges, the paper's
	// "parabolic" intuition: edge mass should dominate the middle.
	edges := opt.Probs[0] + opt.Probs[len(opt.Probs)-1]
	mid := opt.Probs[len(opt.Probs)/2]
	if edges < 2*mid {
		t.Fatalf("expected edge-heavy distribution, got %v", opt.Probs)
	}
}

func TestOptimizeMaximinEmptySet(t *testing.T) {
	if _, err := OptimizeMaximin(nil, func(a, b float64) float64 { return 0 }, 10, 1); err == nil {
		t.Fatal("empty set should error")
	}
}

func TestQuickDistributionProbsSumToOne(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		bws := make([]float64, len(raw))
		for i, b := range raw {
			bws[i] = float64(b%50) + 1
		}
		for _, p := range []Pattern{Fixed, Linear, Exponential, Parabolic} {
			d, err := NewDistribution(p, bws)
			if err != nil {
				return false
			}
			if d.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAverageThroughputPanicsOnBadFactor(t *testing.T) {
	d, _ := NewDistribution(Linear, DefaultBandwidths())
	defer func() {
		if recover() == nil {
			t.Fatal("zero spreading factor should panic")
		}
	}()
	d.AverageThroughput(0)
}

func TestBestResponsePicksLargestOffset(t *testing.T) {
	payoff := func(bp, bj float64) float64 {
		return math.Abs(math.Log10(bp / bj))
	}
	bws := DefaultBandwidths()
	// Jammer at the low edge: best response is the widest bandwidth.
	idx, err := BestResponse(bws, 0.15625, payoff)
	if err != nil {
		t.Fatal(err)
	}
	if bws[idx] != 10 {
		t.Fatalf("best response to a narrow jammer = %v, want 10", bws[idx])
	}
	// Jammer at the top: best response is the narrowest bandwidth.
	idx, _ = BestResponse(bws, 10, payoff)
	if bws[idx] != 0.15625 {
		t.Fatalf("best response to a wide jammer = %v, want 0.15625", bws[idx])
	}
	if _, err := BestResponse(nil, 1, payoff); err == nil {
		t.Fatal("empty set should error")
	}
}
