package main

import (
	"fmt"
	"math"
	"runtime"

	"bhss/internal/channel"
	"bhss/internal/core"
	"bhss/internal/dsp"
	"bhss/internal/hop"
	"bhss/internal/jammer"
	"bhss/internal/obs"
	"bhss/internal/prng"
	"bhss/internal/stats"
)

// The jammed link is §6's measured traffic in one serial loop: the
// testbed's oscillator offset and noise floor, the signal 40 dB above the
// floor, and band-limited jammers of equal power (SJR 0 dB) cycling
// through the paper's seven bandwidths, one per frame.
const (
	payloadBytes = 32
	// warmFrames is the link warm-up: with 20 hops per frame it visits
	// every bandwidth, filling the receiver's Welch, low-pass and
	// pulse-shape caches.
	warmFrames  = 8
	jammedCFO   = 9e-5
	jammedSNRdB = 40
	noiseVar    = 0.01
	jamPower    = 100
)

// linkRig is one set-up instance of a link workload: both ends of the
// link, the channel, and the seeded input stream.
type linkRig struct {
	jammed bool
	tx     *core.Transmitter
	rx     *core.Receiver
	jams   []*jammer.Bandlimited
	noise  *channel.AWGN
	gain   float64
	inputs *prng.Source
	// frame counts frames pushed through the rig; it picks the jammer.
	frame   int
	payload []byte
	//bhss:scratch
	buf []complex128
}

func newLinkRig(seed uint64, jammed bool) (*linkRig, error) {
	cfg := core.DefaultConfig(seed)
	cfg.TrackingLoops = jammed
	tx, err := core.NewTransmitter(cfg)
	if err != nil {
		return nil, err
	}
	rx, err := core.NewReceiver(cfg)
	if err != nil {
		return nil, err
	}
	r := &linkRig{jammed: jammed, tx: tx, rx: rx, inputs: prng.New(seed ^ 0x6c696e6b), payload: make([]byte, payloadBytes)}
	if jammed {
		for i, bw := range hop.DefaultBandwidths() {
			j, err := jammer.NewBandlimited(bw/cfg.SampleRate, jamPower, seed*0x9e3779b97f4a7c15+uint64(i))
			if err != nil {
				return nil, err
			}
			r.jams = append(r.jams, j)
		}
		r.noise = channel.NewAWGN(noiseVar, seed^0x6e6f697365)
		r.gain = math.Sqrt(noiseVar) * stats.AmplitudeFromDB(jammedSNRdB)
	}
	return r, nil
}

// step pushes one frame through encode, channel and decode, with spans
// under parent when tr is non-nil. It reports whether the payload arrived
// byte-exact and how many samples the frame carried.
func (r *linkRig) step(tr *tracer, parent, id int) (delivered bool, samples int, err error) {
	for i := range r.payload {
		r.payload[i] = byte(r.inputs.Uint64())
	}
	var cfo, phase float64
	if r.jammed {
		phase = 2 * math.Pi * r.inputs.Float64()
		cfo = jammedCFO
		if r.inputs.Bit() == 1 {
			cfo = -cfo
		}
	}
	s := tr.begin("core.tx.encode", parent, id)
	burst, err := r.tx.EncodeFrameInto(r.buf[:0], r.payload)
	tr.end(s)
	if err != nil {
		return false, 0, err
	}
	r.buf = burst.Samples
	x := burst.Samples
	if r.jammed {
		s = tr.begin("jammer.emit", parent, id)
		j := r.jams[r.frame%len(r.jams)].Emit(len(x))
		tr.end(s)
		s = tr.begin("channel.mix", parent, id)
		dsp.Scale(x, r.gain)
		dsp.Mix(x, cfo, phase)
		dsp.AddTo(x, j)
		tr.end(s)
		s = tr.begin("channel.awgn", parent, id)
		r.noise.Add(x)
		tr.end(s)
	}
	r.frame++
	s = tr.begin("core.rx.decode", parent, id)
	got, _, decErr := r.rx.DecodeBurst(x)
	tr.end(s)
	return decErr == nil && checkPayload(r.payload, got) == nil, len(x), nil
}

// checkPayload reports whether got is want, byte for byte.
func checkPayload(want, got []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("payload length %d, sent %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("payload byte %d = %#x, sent %#x", i, got[i], want[i])
		}
	}
	return nil
}

// setupLink builds the rig and runs the warm-up that fills the receiver's
// Welch, low-pass and pulse-shape caches, reps times; the last rig is kept
// and setup_s is the median.
func setupLink(p plan, seed uint64, jammed bool) (*linkRig, float64, error) {
	var rig *linkRig
	times := make([]float64, 0, p.setupReps)
	for rep := 0; rep < p.setupReps; rep++ {
		speed, t0 := hostSpeed(), now()
		r, err := newLinkRig(seed, jammed)
		if err != nil {
			return nil, 0, err
		}
		for i := 0; i < warmFrames; i++ {
			if _, _, err := r.step(nil, -1, i); err != nil {
				return nil, 0, err
			}
		}
		times = append(times, seconds(now()-t0)*speed)
		rig = r
	}
	return rig, median(times), nil
}

// linkPass is what one pass of timed frames measured. Each round starts by
// measuring the host's speed, and the round's timings are scaled by it.
type linkPass struct {
	frames, lost int64
	roundMSPS    []float64
	latencyNS    []float64
	speeds       []float64
	mallocs      uint64
}

// runFrames pushes n timed frames through rig in p.rounds rounds.
func runFrames(rig *linkRig, p plan, n int, tr *tracer) (linkPass, error) {
	pass := linkPass{latencyNS: make([]float64, 0, n)}
	perRound := (n + p.rounds - 1) / p.rounds
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	for done := 0; done < n; {
		speed := hostSpeed()
		roundStart, roundSamples := now(), 0
		for i := 0; i < perRound && done < n; i++ {
			t0 := now()
			f := tr.begin("link.frame", -1, done)
			ok, samples, err := rig.step(tr, f, done)
			tr.end(f)
			pass.latencyNS = append(pass.latencyNS, float64(now()-t0)*speed)
			if err != nil {
				return pass, err
			}
			pass.frames++
			if !ok {
				pass.lost++
			}
			roundSamples += samples
			done++
		}
		pass.roundMSPS = append(pass.roundMSPS, float64(roundSamples)/seconds(now()-roundStart)/1e6/speed)
		pass.speeds = append(pass.speeds, speed)
	}
	runtime.ReadMemStats(&ms)
	pass.mallocs = ms.Mallocs - mallocs0
	return pass, nil
}

func runLinkClean(p plan, opt options) (*outcome, error) {
	return runLink(p, opt, false, p.cleanFrames)
}

func runLinkJammed(p plan, opt options) (*outcome, error) {
	return runLink(p, opt, true, p.jammedFrames)
}

func runLink(p plan, opt options, jammed bool, frames int) (*outcome, error) {
	o := newOutcome()
	rig, setup, err := setupLink(p, opt.seed, jammed)
	if err != nil {
		return nil, err
	}
	pass, err := runFrames(rig, p, frames, nil)
	if err != nil {
		return nil, err
	}
	o.attempted, o.e2e["setup_s"] = pass.frames, setup
	o.e2e["msps"] = median(pass.roundMSPS)
	o.e2e["latency_ms_p50"] = median(pass.latencyNS) / 1e6
	o.e2e["allocs_per_op"] = float64(pass.mallocs) / float64(pass.frames)
	o.layer["link.frames"] = float64(pass.frames)
	o.layer["link.frame_loss"] = float64(pass.lost) / float64(pass.frames)
	o.layer["link.frame_ms_p99"] = quantile(pass.latencyNS, 0.99) / 1e6
	o.layer["host.speed"] = median(pass.speeds)
	if jammed {
		// Losing frames is the jammed link's measured outcome, not a fault,
		// but a loss rate of 0 or 1 means the scenario no longer sits on the
		// loss curve it was chosen for.
		o.check(pass.lost > 0 && pass.lost < pass.frames, "jammed link lost %d of %d frames", pass.lost, pass.frames)
	} else {
		o.failed = pass.lost
		o.check(pass.lost == 0, "clean link lost %d of %d frames", pass.lost, pass.frames)
	}
	if !opt.trace {
		return o, nil
	}

	// The traced pass repeats the same frames on a fresh rig with spans
	// around every layer call and the observer on both ends.
	rig, _, err = setupLink(plan{setupReps: 1}, opt.seed, jammed)
	if err != nil {
		return nil, err
	}
	met := obs.NewPipeline()
	rig.tx.SetObserver(met)
	rig.rx.SetObserver(met)
	tr := newTracer()
	traced, err := runFrames(rig, p, frames, tr)
	if err != nil {
		return nil, err
	}
	o.check(traced.lost == pass.lost, "traced pass lost %d frames, untraced %d", traced.lost, pass.lost)
	total := tr.totals()
	l := ledger{
		frames: float64(traced.frames),
		frame:  total["link.frame"], encode: total["core.tx.encode"], decode: total["core.rx.decode"],
		jam: total["jammer.emit"], mix: total["channel.mix"], awgn: total["channel.awgn"],
	}
	l.fill(o.layer, met)
	o.layer["trace.overhead"] = 1 - median(traced.roundMSPS)/median(pass.roundMSPS)
	if !jammed {
		if err := pipelinedDecode(o, p, opt.seed, frames/10, tr); err != nil {
			return nil, err
		}
	}
	return o, writeSpans(opt.traceOut, tr)
}

// pipelinedDecode encodes n frames once and decodes each on a serial and a
// pipelined receiver, alternating which goes first, so host slow spells
// and cache warmth favour neither. Both receivers carry an observer, as in
// the traced pass.
func pipelinedDecode(o *outcome, p plan, seed uint64, n int, tr *tracer) error {
	rig, err := newLinkRig(seed, false)
	if err != nil {
		return err
	}
	piped, err := core.NewReceiver(core.DefaultConfig(seed))
	if err != nil {
		return err
	}
	if err := piped.EnablePipeline(core.PipelineConfig{}); err != nil {
		return err
	}
	defer piped.Close()
	rxs := [2]*core.Receiver{rig.rx, piped}
	names := [2]string{"core.rx.decode.serial", "core.rx.decode.pipelined"}
	var sums [2]int64
	for i := 0; i < warmFrames+n; i++ {
		if i == warmFrames {
			rig.rx.SetObserver(obs.NewPipeline())
			piped.SetObserver(obs.NewPipeline())
		}
		for b := range rig.payload {
			rig.payload[b] = byte(rig.inputs.Uint64())
		}
		burst, err := rig.tx.EncodeFrameInto(rig.buf[:0], rig.payload)
		if err != nil {
			return err
		}
		rig.buf = burst.Samples
		for k := 0; k < 2; k++ {
			j := (i + k) % 2
			ns, err := timedDecode(tr, rxs[j], names[j], i, burst.Samples, rig.payload)
			if err != nil {
				return err
			}
			if i >= warmFrames {
				sums[j] += ns
			}
		}
	}
	o.layer["core.rx.pipelined_us"] = float64(sums[1]) / float64(n) / 1e3
	o.layer["core.rx.pipelined_speedup"] = ratio(float64(sums[0]), float64(sums[1]))
	return nil
}

// timedDecode decodes x on rx inside a span and checks the payload.
func timedDecode(tr *tracer, rx *core.Receiver, name string, id int, x []complex128, want []byte) (int64, error) {
	s := tr.begin(name, -1, id)
	got, _, err := rx.DecodeBurst(x)
	tr.end(s)
	if err == nil {
		err = checkPayload(want, got)
	}
	if err != nil {
		return 0, fmt.Errorf("%s: clean frame %d: %w", name, id, err)
	}
	return tr.spans[s].end - tr.spans[s].start, nil
}

// ledger holds a workload's per-frame accounting in ns totals: the frame
// and the calls into each layer, timed from outside (or, in the sweep, by
// the program's observer). fill adds the observer's exact stage sums and
// reports every layer's self time per frame, so the layers add up to
// link.frame_us.
type ledger struct {
	frames                                float64
	frame, encode, jam, mix, awgn, decode float64
}

func (l ledger) fill(m map[string]float64, met *obs.Pipeline) {
	st := func(s obs.Stage) float64 { return float64(met.StageNS[s].Sum()) }
	spread, modulate := st(obs.StageTxSpread), st(obs.StageTxModulate)
	estimate, psd := st(obs.StageRxEstimate), float64(met.PSD.EstimateNS.Sum())
	filter, design := st(obs.StageRxFilter), st(obs.StageRxFilterDesign)
	track, demod, despread := st(obs.StageRxTrack), st(obs.StageRxDemod), st(obs.StageRxDespread)
	us := func(ns float64) float64 { return ns / l.frames / 1e3 }

	m["link.frame_us"] = us(l.frame)
	m["link.unattributed_us"] = us(l.frame - l.encode - l.jam - l.mix - l.awgn - l.decode)
	m["core.tx.encode_us"] = us(l.encode)
	m["core.tx.spread_us"] = us(spread)
	m["core.tx.modulate_us"] = us(modulate)
	m["core.tx.unattributed_us"] = us(l.encode - spread - modulate)
	m["jammer.emit_us"] = us(l.jam)
	m["jammer.share"] = ratio(l.jam, l.frame)
	m["channel.mix_us"] = us(l.mix)
	m["channel.awgn_us"] = us(l.awgn)
	m["core.rx.decode_us"] = us(l.decode)
	m["core.rx.estimate_us"] = us(estimate - psd)
	m["spectral.psd_us"] = us(psd)
	m["core.rx.filter_design_us"] = us(design)
	m["dsp.filter_us"] = us(filter - design)
	m["tracking.costas_us"] = us(track)
	m["pulse.demod_us"] = us(demod)
	m["dsss.despread_us"] = us(despread)
	m["core.rx.unattributed_us"] = us(l.decode - estimate - filter - track - demod - despread)

	c := &met.Cache
	m["core.rx.notch_cache.hit_ratio"] = ratio(float64(c.NotchHit.Load()), float64(c.NotchHit.Load()+c.NotchMiss.Load()))
	m["core.rx.notch_cache.evictions"] = float64(c.NotchEvict.Load())
	m["core.rx.lowpass_cache.hit_ratio"] = ratio(float64(c.LowPassHit.Load()), float64(c.LowPassHit.Load()+c.LowPassMiss.Load()))
	m["core.rx.welch_cache.hit_ratio"] = ratio(float64(c.WelchHit.Load()), float64(c.WelchHit.Load()+c.WelchMiss.Load()))
	hops := float64(met.Rx.Hops.Load())
	m["core.rx.hops.none"] = ratio(float64(met.Rx.Decision[core.FilterNone].Load()), hops)
	m["core.rx.hops.lowpass"] = ratio(float64(met.Rx.Decision[core.FilterLowPass].Load()), hops)
	m["core.rx.hops.excision"] = ratio(float64(met.Rx.Decision[core.FilterExcision].Load()), hops)
}
