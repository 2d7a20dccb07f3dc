// Benchmarks regenerating every table and figure of the paper's evaluation.
// The theoretical figures (7-11) and Table 1 evaluate closed-form models and
// run in microseconds; the measured experiments (Figures 13-14, Table 2 and
// the ablations) drive the full sample-level pipeline at a reduced scale and
// take seconds per iteration — run them with:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Custom metrics attached to the measured benches report the reproduced
// headline numbers (power advantages in dB) so a bench run doubles as a
// reproduction check.
package bhss

import (
	"testing"

	"bhss/internal/experiment"
)

// benchScale keeps the measured benches to seconds per iteration. Under
// -short it shrinks further to a smoke scale: enough frames to exercise every
// stage of each experiment driver, not enough to reproduce the paper's
// numbers — the smoke run checks for bit-rot, not for dB.
func benchScale() experiment.Scale {
	sc := experiment.QuickScale()
	sc.Frames = 12
	if testing.Short() {
		sc.Frames = 3
	}
	sc.SNRTolDB = 2
	return sc
}

func BenchmarkFig5Waveform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Fig5(uint64(i) + 1)
		if len(res.Series) < 3 {
			b.Fatal("fig5 incomplete")
		}
	}
}

func BenchmarkFig7Bound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiment.Fig7(); len(res.Series) != 3 {
			b.Fatal("fig7 incomplete")
		}
	}
}

func BenchmarkFig8BoundZoom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiment.Fig8(); len(res.Series) != 3 {
			b.Fatal("fig8 incomplete")
		}
	}
}

func BenchmarkFig9BER(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiment.Fig9(); len(res.Series) != 7 {
			b.Fatal("fig9 incomplete")
		}
	}
}

func BenchmarkFig10BERvsJammerBW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiment.Fig10(); len(res.Series) != 3 {
			b.Fatal("fig10 incomplete")
		}
	}
}

func BenchmarkFig11Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiment.Fig11(); len(res.Series) != 7 {
			b.Fatal("fig11 incomplete")
		}
	}
}

func BenchmarkTable1Patterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiment.Table1(); len(res.Tables) != 1 {
			b.Fatal("table1 incomplete")
		}
	}
}

func BenchmarkTable1MaximinOptimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiment.OptimizedParabolic(2000, uint64(i)+1); len(res.Series) != 2 {
			b.Fatal("optimizer incomplete")
		}
	}
}

func BenchmarkFig13PowerAdvantage(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig13(sc, []float64{10, 0.625})
		if err != nil {
			b.Fatal(err)
		}
		// Report the widest-offset measured advantage (ratio 16).
		m := res.Series[0]
		b.ReportMetric(m.Y[len(m.Y)-1], "adv_dB")
	}
}

func BenchmarkFig14HoppingAdvantage(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig14(sc, []float64{2.5, 0.15625})
		if err != nil {
			b.Fatal(err)
		}
		// Report the parabolic pattern's advantage against the narrow
		// jammer.
		par := res.Series[2]
		b.ReportMetric(par.Y[len(par.Y)-1], "adv_dB")
	}
}

func BenchmarkTable2PatternDuel(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table2(sc)
		if err != nil {
			b.Fatal(err)
		}
		// Report the parabolic row's worst matchup (the paper's headline
		// 11.4 dB robustness number).
		par := res.Series[2]
		worst := par.Y[0]
		for _, v := range par.Y {
			if v < worst {
				worst = v
			}
		}
		b.ReportMetric(worst, "worst_adv_dB")
	}
}

func BenchmarkAblationHopDwell(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationHopDwell(sc, []int{4, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFilterTaps(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationFilterTaps(sc, []int{129, 1025}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkThroughput measures the end-to-end encode+decode rate of the
// library itself (not a paper artifact; a performance regression guard). It
// uses the steady-state EncodeFrameInto path — the API a real modem loop
// would sit on — and reports bytes/s of IQ pushed through the pipeline
// (16 bytes per complex sample).
func BenchmarkLinkThroughput(b *testing.B) {
	cfg := DefaultConfig(1)
	tx, err := NewTransmitter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rx, err := NewReceiver(cfg)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 32)
	var buf []complex128
	var samples int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst, err := tx.EncodeFrameInto(buf[:0], payload)
		if err != nil {
			b.Fatal(err)
		}
		buf = burst.Samples
		samples += int64(len(burst.Samples))
		if _, _, err := rx.DecodeBurst(burst.Samples); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(samples * 16 / int64(b.N))
}

// BenchmarkLinkThroughputObs is BenchmarkLinkThroughput with the metrics
// pipeline attached: the allocs/op and ns/op deltas against the plain bench
// are the price of observability, which the PR-3 contract keeps at zero.
func BenchmarkLinkThroughputObs(b *testing.B) {
	cfg := DefaultConfig(1)
	tx, err := NewTransmitter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rx, err := NewReceiver(cfg)
	if err != nil {
		b.Fatal(err)
	}
	met := NewObserver()
	tx.SetObserver(met)
	rx.SetObserver(met)
	payload := make([]byte, 32)
	var buf []complex128
	var samples int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst, err := tx.EncodeFrameInto(buf[:0], payload)
		if err != nil {
			b.Fatal(err)
		}
		buf = burst.Samples
		samples += int64(len(burst.Samples))
		if _, _, err := rx.DecodeBurst(burst.Samples); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.SetBytes(samples * 16 / int64(b.N))
	if met.Rx.Decoded.Load() != int64(b.N) {
		b.Fatalf("observer counted %d decodes, ran %d", met.Rx.Decoded.Load(), b.N)
	}
}
