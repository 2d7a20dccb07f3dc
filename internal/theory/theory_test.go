package theory

import (
	"math"
	"testing"
	"testing/quick"

	"bhss/internal/stats"
)

func TestSNRNoFilter(t *testing.T) {
	// L=100, jammer 100, noise 0.01: SNR ~ 1.
	if snr := SNRNoFilter(100, 100, 0.01); math.Abs(snr-100.0/100.01) > 1e-12 {
		t.Fatalf("SNRNoFilter = %v", snr)
	}
	if !math.IsInf(SNRNoFilter(100, 0, 0), 1) {
		t.Fatal("zero denominator should be +Inf")
	}
}

func TestCorrelatorSNRNoFilterReducesToEq7(t *testing.T) {
	// h = [1]: eq. (6) must reduce to eq. (7).
	rho := BandlimitedAutocorr(50, 0.3)
	got := CorrelatorSNR(100, []float64{1}, rho, 0.25)
	want := SNRNoFilter(100, 50, 0.25)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("eq6 with unit filter = %v, eq7 = %v", got, want)
	}
}

func TestCorrelatorSNREmptyFilter(t *testing.T) {
	if CorrelatorSNR(10, nil, BandlimitedAutocorr(1, 0.1), 0.1) != 0 {
		t.Fatal("empty filter should give 0")
	}
}

func TestDifferencingFilterExcisesDCJammer(t *testing.T) {
	// h = [1, -1] perfectly cancels a DC (zero-bandwidth) jammer:
	// γ should approach ρ0 for small noise.
	rho0 := 100.0
	noise := 0.01
	dc := func(lag int) float64 { return rho0 }
	gamma := ImprovementFactor([]float64{1, -1}, dc, noise)
	// Residual jammer = 0; denominator = self-noise 1 + noise*2.
	want := (rho0 + noise) / (1 + 2*noise)
	if math.Abs(gamma-want) > 1e-9 {
		t.Fatalf("γ = %v, want %v", gamma, want)
	}
	if gamma < 50 {
		t.Fatalf("γ = %v, expected large improvement", gamma)
	}
}

func TestImprovementFactorIndependentOfL(t *testing.T) {
	// The paper highlights that γ does not depend on the processing gain.
	rho := BandlimitedAutocorr(30, 0.05)
	h := []float64{1, -0.6, 0.2}
	g1 := CorrelatorSNR(10, h, rho, 0.01) / SNRNoFilter(10, 30, 0.01)
	g2 := CorrelatorSNR(1000, h, rho, 0.01) / SNRNoFilter(1000, 30, 0.01)
	if math.Abs(g1-g2) > 1e-9 {
		t.Fatalf("γ depends on L: %v vs %v", g1, g2)
	}
}

func TestBandlimitedAutocorr(t *testing.T) {
	rho := BandlimitedAutocorr(7, 0.25)
	if rho(0) != 7 {
		t.Fatalf("ρ(0) = %v, want 7", rho(0))
	}
	// Zeros at lags m where bw*m is integer: m = 4, 8, ...
	if math.Abs(rho(4)) > 1e-12 {
		t.Fatalf("ρ(4) = %v, want 0", rho(4))
	}
	if math.Abs(rho(-4)) > 1e-12 {
		t.Fatalf("ρ(-4) = %v, want 0 (symmetry)", rho(-4))
	}
	if rho(1) <= 0 || rho(1) >= 7 {
		t.Fatalf("ρ(1) = %v out of (0, 7)", rho(1))
	}
}

// Figure 7 landmarks: for ρⱼ(0)=100 (20 dBm) and σ²ₙ=0.01,
// γ ≈ 20 dB at Bp/Bj = 0.01 and converges near 20 dB for Bp/Bj >> 1.
func TestGammaBoundFigure7Landmarks(t *testing.T) {
	rho0, noise := 100.0, 0.01
	// Wide-band branch at Bp/Bj = 0.01.
	g := GammaBound(rho0, noise, 0.01, 1)
	if db := stats.DB(g); math.Abs(db-20) > 0.5 {
		t.Fatalf("wideband γ at ratio 0.01 = %v dB, want ~20", db)
	}
	// Narrow-band branch converges to ~ρ0 for a large offset.
	g = GammaBound(rho0, noise, 1, 0.001)
	if db := stats.DB(g); math.Abs(db-20) > 0.5 {
		t.Fatalf("narrowband γ at ratio 1000 = %v dB, want ~20", db)
	}
	// Near-equal bandwidths: no filtering helps.
	if g := GammaBound(rho0, noise, 1, 1); g != 1 {
		t.Fatalf("matched bandwidth γ = %v, want 1", g)
	}
	// Three jammer powers stack monotonically (10, 20, 30 dBm curves).
	g10 := GammaBound(10, noise, 1, 0.001)
	g20 := GammaBound(100, noise, 1, 0.001)
	g30 := GammaBound(1000, noise, 1, 0.001)
	if !(g10 < g20 && g20 < g30) {
		t.Fatalf("γ not monotone in jammer power: %v %v %v", g10, g20, g30)
	}
	if db := stats.DB(g30); math.Abs(db-30) > 1 {
		t.Fatalf("30 dBm jammer asymptote = %v dB", db)
	}
}

// The asymmetry the paper highlights: the wide-band branch improves roughly
// linearly with the offset while the narrow-band branch saturates at ρ0.
func TestGammaBoundAsymmetry(t *testing.T) {
	rho0, noise := 1000.0, 0.01
	wide := GammaBound(rho0, noise, 0.01, 1)   // Bp/Bj = 0.01
	narrow := GammaBound(rho0, noise, 1, 0.01) // Bp/Bj = 100
	if stats.DB(wide) < 19 {
		t.Fatalf("wideband γ = %v dB", stats.DB(wide))
	}
	// Narrow branch saturates at ~ρ0 = 30 dB regardless of more offset.
	if stats.DB(narrow) > 31 {
		t.Fatalf("narrowband γ exceeded jammer power: %v dB", stats.DB(narrow))
	}
}

func TestGammaNarrowbandThreshold(t *testing.T) {
	rho0, noise := 100.0, 0.01
	// Just above the eq. (10) threshold the filter is not applied: γ = 1.
	thresh := (rho0 - 1) / (rho0 + noise)
	if g := GammaNarrowband(rho0, noise, 1, thresh*1.01); g != 1 {
		t.Fatalf("above threshold γ = %v, want 1", g)
	}
	// Just below, γ >= 1 and continuous (≈1 at the threshold itself).
	g := GammaNarrowband(rho0, noise, 1, thresh*0.999)
	if g < 1 || g > 1.2 {
		t.Fatalf("at threshold γ = %v, want ~1", g)
	}
	// Weak jammer: excision never helps.
	if g := GammaNarrowband(0.5, noise, 1, 0.1); g != 1 {
		t.Fatalf("weak jammer γ = %v, want 1", g)
	}
}

func TestGammaPanicsOnBadInput(t *testing.T) {
	for _, fn := range []func(){
		func() { GammaNarrowband(10, 0.01, 0, 0.1) },
		func() { GammaNarrowband(10, 0.01, 1, -0.1) },
		func() { GammaWideband(10, 0.01, 0, 1) },
		func() { UniformLogHops(1, 5) },
		func() { UniformLogHops(100, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestBitErrorRate(t *testing.T) {
	if b := BitErrorRate(0); b != 0.5 {
		t.Fatalf("BER at SNR 0 = %v, want 0.5", b)
	}
	if b := BitErrorRate(-1); b != 0.5 {
		t.Fatalf("BER at negative SNR = %v, want 0.5", b)
	}
	// Monotone decreasing.
	prev := 1.0
	for _, snr := range []float64{0.1, 1, 4, 10, 30, 100} {
		b := BitErrorRate(snr)
		if b >= prev {
			t.Fatalf("BER not decreasing at SNR %v", snr)
		}
		prev = b
	}
	// Known value: SNR 9 -> Q(3) ~ 1.35e-3.
	if b := BitErrorRate(9); math.Abs(b-0.00135)/0.00135 > 0.01 {
		t.Fatalf("BER(9) = %v, want ~1.35e-3", b)
	}
}

func TestPacketErrorRate(t *testing.T) {
	if p := PacketErrorRate(0, 1000); p != 0 {
		t.Fatalf("PER at pb=0: %v", p)
	}
	if p := PacketErrorRate(1, 10); p != 1 {
		t.Fatalf("PER at pb=1: %v", p)
	}
	// Small-pb linearization: PER ~ n*pb.
	p := PacketErrorRate(1e-9, 4000)
	if math.Abs(p-4e-6)/4e-6 > 0.01 {
		t.Fatalf("PER(1e-9, 4000) = %v, want ~4e-6", p)
	}
	// Exact: 1-(1-0.1)^2 = 0.19.
	if p := PacketErrorRate(0.1, 2); math.Abs(p-0.19) > 1e-12 {
		t.Fatalf("PER(0.1,2) = %v, want 0.19", p)
	}
}

func TestNoiseVarFromEbNo(t *testing.T) {
	// σ²ₙ = L / EbNo: jam-free SNR equals EbNo.
	L := 100.0
	ebNo := stats.FromDB(15)
	nv := NoiseVarFromEbNo(L, ebNo)
	if snr := SNRNoFilter(L, 0, nv); math.Abs(snr-ebNo)/ebNo > 1e-12 {
		t.Fatalf("jam-free SNR = %v, want EbNo %v", snr, ebNo)
	}
	if !math.IsInf(NoiseVarFromEbNo(100, 0), 1) {
		t.Fatal("EbNo 0 should give infinite noise")
	}
}

func TestUniformLogHops(t *testing.T) {
	bws, probs := UniformLogHops(100, 7)
	if len(bws) != 7 || len(probs) != 7 {
		t.Fatal("wrong lengths")
	}
	if bws[0] != 1 {
		t.Fatalf("max bandwidth %v, want 1", bws[0])
	}
	if math.Abs(bws[6]-0.01) > 1e-9 {
		t.Fatalf("min bandwidth %v, want 0.01", bws[6])
	}
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum %v", sum)
	}
	// Single hop degenerates to bandwidth 1.
	one, _ := UniformLogHops(100, 1)
	if one[0] != 1 {
		t.Fatalf("single hop bw = %v", one[0])
	}
}

func fig9Model(mode Averaging) HopModel {
	bws, probs := UniformLogHops(100, 25)
	return HopModel{Bandwidths: bws, Probs: probs, Rho0: 100, L: 100, Mode: mode}
}

// Figure 9's qualitative claims: BHSS beats DSSS/FHSS for every jammer
// bandwidth; smaller fixed jammer bandwidths do better at high Eb/N0;
// the random-hopping jammer lands between the extremes.
func TestFigure9Ordering(t *testing.T) {
	m := fig9Model(AverageVariance)
	ebNo := stats.FromDB(15)
	dsss := FixedBWBER(100, 100, ebNo)
	if dsss < 0.05 {
		t.Fatalf("DSSS BER = %v; the matched jammer should keep it high", dsss)
	}
	berAt := func(bj float64) float64 { return m.BERFixedJammer(bj, ebNo) }
	b001 := berAt(0.01)
	b01 := berAt(0.1)
	b03 := berAt(0.3)
	b1 := berAt(1.0)
	// Narrow jammers are increasingly harmless; the worst case sits at an
	// interior bandwidth (Figure 10's maximum), not necessarily at bj=1.
	if !(b001 <= b01 && b01 <= b03) {
		t.Fatalf("BER not ordered for narrow jammers: %v %v %v", b001, b01, b03)
	}
	worst := math.Max(b03, b1)
	if worst >= dsss {
		t.Fatalf("BHSS (worst case %v) should still beat DSSS (%v)", worst, dsss)
	}
	jb, jp := UniformLogHops(100, 25)
	rnd := m.BERRandomJammer(jb, jp, ebNo)
	if !(rnd >= b001 && rnd <= b1) {
		t.Fatalf("random jammer BER %v outside [%v, %v]", rnd, b001, b1)
	}
}

func TestFigure9BothAveragingModesOrdered(t *testing.T) {
	for _, mode := range []Averaging{AverageVariance, AverageBER} {
		m := fig9Model(mode)
		prev := 1.0
		// BER must fall monotonically with Eb/N0 for a fixed jammer.
		for _, db := range []float64{0, 5, 10, 15, 20} {
			b := m.BERFixedJammer(0.1, stats.FromDB(db))
			if b > prev+1e-15 {
				t.Fatalf("mode %d: BER rose with Eb/N0 at %v dB", mode, db)
			}
			prev = b
		}
	}
}

// Figure 10: BER vs jammer bandwidth exhibits an interior maximum, and
// stronger jamming (lower SJR) means higher BER.
func TestFigure10InteriorMaximum(t *testing.T) {
	bws, probs := UniformLogHops(100, 25)
	ebNo := stats.FromDB(14)
	for _, sjrDB := range []float64{-10, -15, -20} {
		m := HopModel{Bandwidths: bws, Probs: probs, Rho0: stats.FromDB(-sjrDB), L: 100, Mode: AverageVariance}
		ratios := stats.Logspace(-2, 0, 21)
		bers := make([]float64, len(ratios))
		for i, r := range ratios {
			bers[i] = m.BERFixedJammer(r, ebNo)
		}
		// The maximum must not sit at the first point (i.e. BER rises
		// from the narrow end before the wide end behaves differently).
		maxI := 0
		for i, b := range bers {
			if b > bers[maxI] {
				maxI = i
			}
		}
		if maxI == 0 {
			t.Fatalf("SJR %v dB: BER maximum at the smallest jammer bandwidth", sjrDB)
		}
	}
	// Stronger jammers are worse at every bandwidth.
	weak := HopModel{Bandwidths: bws, Probs: probs, Rho0: 10, L: 100, Mode: AverageVariance}
	strong := HopModel{Bandwidths: bws, Probs: probs, Rho0: 100, L: 100, Mode: AverageVariance}
	for _, r := range []float64{0.01, 0.1, 1} {
		if weak.BERFixedJammer(r, ebNo) > strong.BERFixedJammer(r, ebNo) {
			t.Fatalf("weaker jammer produced higher BER at ratio %v", r)
		}
	}
}

// Figure 11: throughput ordering — a small fixed jammer lets BHSS reach
// full throughput early; the matched-to-max jammer caps it well below 1;
// the random-jammer curve beats the DSSS/FHSS baseline everywhere.
func TestFigure11Throughput(t *testing.T) {
	m := fig9Model(AverageVariance)
	const nBits = 4000 // 500-byte packets
	high := stats.FromDB(25)
	small := m.ThroughputFixedJammer(0.01, high, nBits)
	if small < 0.95 {
		t.Fatalf("small jammer throughput %v, want ~1", small)
	}
	capped := m.ThroughputFixedJammer(1.0, high, nBits)
	if capped > 0.6 {
		t.Fatalf("matched max-BW jammer throughput %v, want well below 1", capped)
	}
	if capped < 0.02 {
		t.Fatalf("matched max-BW jammer throughput %v, want nonzero (narrow hops survive)", capped)
	}
	jb, jp := UniformLogHops(100, 25)
	for _, db := range []float64{5, 10, 15, 20, 25, 30} {
		ebNo := stats.FromDB(db)
		bhss := m.ThroughputRandomJammer(jb, jp, ebNo, nBits)
		dsss := FixedBWThroughput(347, 100, ebNo, nBits)
		if bhss+1e-12 < dsss {
			t.Fatalf("at %v dB BHSS throughput %v below DSSS %v", db, bhss, dsss)
		}
	}
	// Throughput must be monotone in Eb/N0 for a fixed jammer.
	prev := -1.0
	for _, db := range []float64{0, 5, 10, 15, 20, 25} {
		tp := m.ThroughputFixedJammer(0.1, stats.FromDB(db), nBits)
		if tp+1e-12 < prev {
			t.Fatalf("throughput fell with Eb/N0 at %v dB", db)
		}
		prev = tp
	}
}

func TestQuickGammaBoundAtLeastOne(t *testing.T) {
	f := func(a, b uint16) bool {
		bp := float64(a%1000)/1000 + 0.001
		bj := float64(b%1000)/1000 + 0.001
		g := GammaBound(100, 0.01, bp, bj)
		return g >= 1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBERWithinBounds(t *testing.T) {
	m := fig9Model(AverageVariance)
	f := func(a uint16, e uint8) bool {
		bj := float64(a%1000)/1000 + 0.001
		ebNo := stats.FromDB(float64(e % 30))
		ber := m.BERFixedJammer(bj, ebNo)
		return ber >= 0 && ber <= 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickThroughputWithinUnitInterval(t *testing.T) {
	m := fig9Model(AverageVariance)
	f := func(a uint16, e uint8, n uint16) bool {
		bj := float64(a%1000)/1000 + 0.001
		ebNo := stats.FromDB(float64(e % 35))
		bits := int(n%8000) + 1
		tp := m.ThroughputFixedJammer(bj, ebNo, bits)
		return tp >= 0 && tp <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRandomJammerBERBracketedByExtremes(t *testing.T) {
	// The random-jammer BER is a mixture of fixed-jammer links, so in
	// AverageBER mode it must lie within [min, max] over the jammer set.
	bws, probs := UniformLogHops(100, 9)
	m := HopModel{Bandwidths: bws, Probs: probs, Rho0: 100, L: 100, Mode: AverageBER}
	f := func(e uint8) bool {
		ebNo := stats.FromDB(float64(e % 25))
		min, max := 1.0, 0.0
		for _, bj := range bws {
			b := m.BERFixedJammer(bj, ebNo)
			if b < min {
				min = b
			}
			if b > max {
				max = b
			}
		}
		rnd := m.BERRandomJammer(bws, probs, ebNo)
		return rnd >= min-1e-12 && rnd <= max+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
