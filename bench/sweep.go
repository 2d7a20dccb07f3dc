package main

import (
	"math"
	"runtime"

	"bhss/internal/core"
	"bhss/internal/experiment"
	"bhss/internal/hop"
	"bhss/internal/obs"
)

// sweepScale is the bench scale of the repository's Fig 13 benchmark
// (QuickScale with 12 frames per point and a 2 dB bisection step).
func sweepScale(seed uint64, frames int) experiment.Scale {
	sc := experiment.QuickScale()
	sc.Frames = frames
	sc.SNRTolDB = 2
	sc.Seed = seed
	return sc
}

// sweepPass is one timed Fig13 call.
type sweepPass struct {
	res     experiment.Result
	met     *obs.Pipeline
	wallNS  int64
	mallocs uint64
	// speed is the host's mean speed over the sweep: its samples are evenly
	// spaced in time, and work done is speed integrated over time.
	speed float64
}

// runFig13 times one sweep. The observer is attached in every pass: the
// samples a sweep simulates, its throughput's numerator, are counted only
// inside Fig13.
func runFig13(sc experiment.Scale, bws []float64, tr *tracer) (sweepPass, error) {
	pass := sweepPass{met: obs.NewPipeline()}
	sc.Obs = pass.met
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	stop, speeds := make(chan struct{}), make(chan []float64, 1)
	go func() { speeds <- sampleSpeed(stop) }()
	t0 := now()
	s := tr.begin("experiment.fig13", -1, 0)
	res, err := experiment.Fig13(sc, bws)
	tr.end(s)
	pass.wallNS = now() - t0
	close(stop)
	pass.speed = mean(<-speeds)
	runtime.ReadMemStats(&ms)
	pass.mallocs = ms.Mallocs - mallocs0
	pass.res = res
	return pass, err
}

func advDB(res experiment.Result) (float64, bool) {
	for _, m := range res.Metrics {
		if m.Name == "adv_db" {
			return m.Value, true
		}
	}
	return 0, false
}

func runSweep(p plan, opt options) (*outcome, error) {
	o := newOutcome()
	// Set-up measures one two-frame packet-loss point of the grid's first
	// diagonal cell, as Fig13 builds it: every kind of object a sweep point
	// builds is made once, and the process-wide FFT plan cache fills.
	bw := p.sweepBandwidths[0]
	cfg := core.DefaultConfig(opt.seed)
	cfg.Pattern, cfg.Bandwidths, cfg.TrackingLoops = hop.Fixed, []float64{bw}, true
	warm := experiment.Trial{
		Config:      cfg,
		NewJammer:   experiment.FixedJammer(bw/cfg.SampleRate, jamPower),
		RandomPhase: true, CFO: jammedCFO,
		Scale: sweepScale(opt.seed, 2),
	}
	times := make([]float64, 0, p.setupReps)
	for rep := 0; rep < p.setupReps; rep++ {
		speed, t0 := hostSpeed(), now()
		if _, err := warm.PacketLoss(warm.Scale.SNRHiDB, opt.seed); err != nil {
			return nil, err
		}
		times = append(times, seconds(now()-t0)*speed)
	}
	o.e2e["setup_s"] = median(times)

	cells := int64(len(p.sweepBandwidths) * len(p.sweepBandwidths))
	sc := sweepScale(opt.seed, p.sweepFrames)
	pass, err := runFig13(sc, p.sweepBandwidths, nil)
	o.attempted = cells
	if err != nil {
		o.failed = cells - pass.met.Exp.CellsDone.Load()
		o.check(false, "fig13: %v", err)
		return o, nil
	}
	adv, ok := advDB(pass.res)
	o.check(ok && !math.IsNaN(adv) && !math.IsInf(adv, 0), "fig13 reported no finite adv_db: %v", pass.res.Metrics)
	o.check(pass.met.Exp.CellsDone.Load() == cells, "fig13 finished %d of %d cells", pass.met.Exp.CellsDone.Load(), cells)
	frames := pass.met.Exp.Frames.Load()
	// One sweep is one data point: its latency is the time a researcher
	// waits for it.
	o.e2e["msps"] = float64(pass.met.Tx.Samples.Load()) / seconds(pass.wallNS) / 1e6 / pass.speed
	o.e2e["latency_ms_p50"] = float64(pass.wallNS) / 1e6 * pass.speed
	o.e2e["allocs_per_op"] = ratio(float64(pass.mallocs), float64(frames))
	o.layer["experiment.adv_db"] = adv
	o.layer["host.speed"] = pass.speed
	if !opt.trace {
		return o, nil
	}

	tr := newTracer()
	traced, err := runFig13(sc, p.sweepBandwidths, tr)
	if err != nil {
		return nil, err
	}
	tadv, _ := advDB(traced.res)
	//bhss:allow(floateq) exact-value check is the point: the sweep is deterministic per seed, observer or not
	o.check(tadv == adv, "traced sweep adv_db %v, untraced %v", tadv, adv)
	met := traced.met
	tframes := float64(met.Exp.Frames.Load())
	pointNS := float64(met.Exp.PointNS.Sum())
	workers := runtime.GOMAXPROCS(0)
	if int64(workers) > cells {
		workers = int(cells)
	}
	// Inside Fig13 only the observer's clocks run: the frame is a point's
	// share of its time, and jammer and channel mixing stay unattributed.
	ledger{
		frames: tframes,
		frame:  pointNS,
		encode: float64(met.StageNS[obs.StageTxEncode].Sum()),
		decode: float64(met.StageNS[obs.StageRxDecode].Sum()),
		awgn:   float64(met.Chan.MixNS.Sum()),
	}.fill(o.layer, met)
	o.layer["link.frames"] = tframes
	o.layer["link.frame_loss"] = ratio(float64(met.Exp.FramesLost.Load()), tframes)
	o.layer["experiment.point_ms"] = ratio(pointNS, float64(met.Exp.PointNS.Count())) / 1e6
	o.layer["experiment.points"] = float64(met.Exp.Points.Load())
	o.layer["experiment.frames"] = tframes
	o.layer["experiment.worker_busy_share"] = pointNS / (float64(traced.wallNS) * float64(workers))
	o.layer["trace.overhead"] = 1 - float64(pass.wallNS)*pass.speed/(float64(traced.wallNS)*traced.speed)
	return o, writeSpans(opt.traceOut, tr)
}
