// Package soak drives a full BHSS link — transmitter, virtual-air hub,
// receiver — through a fault-injecting chaos proxy and reports what
// survived. It is the repo's transport-resilience acceptance harness
// (DESIGN.md §12): the chaos soak passes when traffic keeps flowing
// through resets, truncations and stalls with bounded frame loss, at
// least one reconnect and re-acquisition, no deadlock and no leaked
// goroutines. Both the CI soak job (TestChaosSoak) and bhssbench's
// -exp soak front this package.
package soak

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"bhss/internal/core"
	"bhss/internal/iqstream"
	"bhss/internal/obs"
)

// Defaults: the soak models a nominal 100 kS/s telemetry link, far below
// the DSP's 20 MS/s front-end rate, so "30 seconds of simulated traffic"
// is 3M samples — seconds of wall clock, not minutes.
const (
	DefaultLinkRate      = 100e3
	DefaultSimSeconds    = 30.0
	DefaultTimeout       = 120 * time.Second
	soakPayload          = "bandwidth hopping spread spectrum soak frame"
	defaultHubBlock      = 4096
	defaultTxPacing      = 20 * time.Millisecond
	defaultDrainGrace    = 2 * time.Second
	defaultWatchdogCheck = 50 * time.Millisecond
)

// Config parameterizes one soak run.
type Config struct {
	// Seed drives every random choice in the run: the link's scrambler
	// and hop schedule, the chaos fault schedule and the reconnect
	// jitter.
	Seed uint64
	// ChaosSpec is the fault-injection spec (iqstream.ParseChaosSpec
	// grammar); empty runs a transparent proxy.
	ChaosSpec string
	// SimSeconds is the amount of simulated traffic to push, in seconds
	// at DefaultLinkRate (0 = DefaultSimSeconds).
	SimSeconds float64
	// Timeout bounds the wall-clock run (0 = DefaultTimeout).
	Timeout time.Duration
	// Metrics, when non-nil, receives the run's hub and client counters;
	// nil allocates a private pipeline.
	Metrics *obs.Pipeline
	// Logf receives progress events; nil silences them.
	Logf func(format string, args ...any)
}

// Report is the outcome of one soak run.
type Report struct {
	FramesSent     int
	FramesReceived int
	FramesLost     int

	SamplesSent int64
	SimSeconds  float64

	Reconnects  int64 // successful re-establishments (both clients)
	StreamGaps  int64 // rx-side discontinuities surfaced as ErrStreamGap
	Reacquired  int64 // gaps the receive pipeline recovered from
	Evictions   int64 // hub slow-consumer evictions
	HubDrops    int64 // mixed blocks dropped at full receiver queues
	WallSeconds float64
}

func (r Report) String() string {
	return fmt.Sprintf(
		"soak: %d/%d frames (%d lost), %.1fs simulated in %.1fs wall, %d reconnects, %d gaps (%d reacquired), %d evictions",
		r.FramesReceived, r.FramesSent, r.FramesLost,
		r.SimSeconds, r.WallSeconds, r.Reconnects, r.StreamGaps, r.Reacquired, r.Evictions)
}

// Run executes one soak and blocks until the link drains or the timeout
// hits. A non-nil error means the harness itself failed to run, not that
// frames were lost — loss is the Report's business.
func Run(cfg Config) (Report, error) {
	if cfg.SimSeconds <= 0 {
		cfg.SimSeconds = DefaultSimSeconds
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	payload := []byte(soakPayload)
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	met := cfg.Metrics
	if met == nil {
		met = obs.NewPipeline()
	}

	start := obs.Now()
	deadline := start + cfg.Timeout.Nanoseconds()

	// The stack: hub ← chaos proxy ← reconnecting clients.
	hub, err := iqstream.NewHub("127.0.0.1:0", iqstream.HubConfig{
		BlockSize: defaultHubBlock,
		// Keep the per-transmitter queue shallow (backpressure instead
		// of depth): after a reconnect the old port's leftover queue
		// transmits on top of the retry stream — a real collision — and
		// a shallow queue bounds how many frames that collision costs.
		MaxPending: 1 << 18,
		Seed:       cfg.Seed,
		Metrics:    &met.Hub,
		Logf:       logf,
	})
	if err != nil {
		return Report{}, fmt.Errorf("soak: hub: %w", err)
	}
	defer hub.Close()
	go func() {
		if err := hub.Serve(); err != nil {
			logf("soak: hub serve: %v", err)
		}
	}()

	proxy, err := iqstream.NewChaosProxyFromSpec(
		"127.0.0.1:0", hub.Addr().String(), cfg.ChaosSpec, cfg.Seed, logf)
	if err != nil {
		return Report{}, fmt.Errorf("soak: chaos proxy: %w", err)
	}
	defer proxy.Close()
	go func() {
		if err := proxy.Serve(); err != nil {
			logf("soak: proxy serve: %v", err)
		}
	}()
	linkAddr := proxy.Addr().String()

	ccfg := core.DefaultConfig(cfg.Seed)
	ccfg.Sync = core.PreambleSync
	tx, err := core.NewTransmitter(ccfg)
	if err != nil {
		return Report{}, fmt.Errorf("soak: transmitter: %w", err)
	}
	rx, err := core.NewReceiver(ccfg)
	if err != nil {
		return Report{}, fmt.Errorf("soak: receiver: %w", err)
	}
	// Burst lengths vary per frame (each frame draws its own hop plan),
	// so walk a probe transmitter through the schedule to learn them up
	// front; the receive loop needs the exact length of each frame to
	// consume the stream burst by burst.
	probe, err := core.NewTransmitter(ccfg)
	if err != nil {
		return Report{}, fmt.Errorf("soak: probe transmitter: %w", err)
	}
	targetSamples := int64(cfg.SimSeconds * DefaultLinkRate)
	var lengths []int
	maxBurst := 0
	for total := int64(0); total < targetSamples || len(lengths) == 0; {
		n, err := probe.BurstLength(len(payload))
		if err != nil {
			return Report{}, fmt.Errorf("soak: burst length: %w", err)
		}
		if _, err := probe.EncodeFrame(payload); err != nil {
			return Report{}, fmt.Errorf("soak: probe encode: %w", err)
		}
		lengths = append(lengths, n)
		if n > maxBurst {
			maxBurst = n
		}
		total += int64(n)
	}
	frames := len(lengths)

	rcfg := func(seedOff uint64) iqstream.ReconnectConfig {
		return iqstream.ReconnectConfig{
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  250 * time.Millisecond,
			MaxAttempts: 40,
			Seed:        cfg.Seed + seedOff,
			Metrics:     &met.Net,
			Logf:        logf,
		}
	}
	txc, err := iqstream.DialTxLinkReconnecting(linkAddr, 0, iqstream.LinkOpts{}, rcfg(101))
	if err != nil {
		return Report{}, fmt.Errorf("soak: dial tx: %w", err)
	}
	defer txc.Close()
	rxc, err := iqstream.DialRxLinkReconnecting(linkAddr, iqstream.LinkOpts{}, rcfg(202))
	if err != nil {
		return Report{}, fmt.Errorf("soak: dial rx: %w", err)
	}
	defer rxc.Close()

	// Transmitter: frames back to back with a token pacing sleep; Send
	// retries across reconnects, and a frame that still fails is simply
	// lost traffic, not a harness error.
	var samplesSent atomic.Int64
	txDone := make(chan struct{})
	go func() {
		defer close(txDone)
		for i := 0; i < frames; i++ {
			burst, err := tx.EncodeFrame(payload)
			if err != nil {
				logf("soak: encode frame %d: %v", i, err)
				return
			}
			if err := txc.Send(burst.Samples); err != nil {
				logf("soak: send frame %d: %v", i, err)
			}
			samplesSent.Add(int64(len(burst.Samples)))
			if obs.Now() > deadline {
				return
			}
			time.Sleep(defaultTxPacing)
		}
		// Flush a silence tail so the final burst clears the receiver's
		// decode gate (burst length plus one hub block): without it the
		// stream ends mid-block and the last frame decodes only when the
		// block padding happens to line up. Best effort — on a torn-down
		// link the tail is just more lost traffic.
		if err := txc.Send(make([]complex128, 2*defaultHubBlock)); err != nil {
			logf("soak: tail flush: %v", err)
		}
	}()

	// Watchdog: once the transmitter is done, give the receive side a
	// grace period of no progress, then sever it so the receive loop
	// unblocks; frames still unaccounted are lost. Also enforces the
	// hard wall-clock deadline.
	var lastProgress atomic.Int64
	lastProgress.Store(start)
	stopWatchdog := make(chan struct{})
	watchdogDone := make(chan struct{})
	go func() {
		defer close(watchdogDone)
		txFinished := false
		tdone := txDone
		for {
			select {
			case <-stopWatchdog:
				return
			case <-tdone:
				txFinished = true
				tdone = nil // select on it only once
			case <-time.After(defaultWatchdogCheck):
			}
			now := obs.Now()
			idle := now-lastProgress.Load() > defaultDrainGrace.Nanoseconds()
			if now > deadline || (txFinished && idle) {
				rxc.Close()
				return
			}
		}
	}()

	// Reader: drain the socket into a deep buffer the moment blocks
	// arrive, so decode speed (which the race detector slows an order of
	// magnitude) never backpressures TCP. Backpressure would fill the
	// hub's per-receiver queue, force mixer-side drops, and shift the
	// byte offsets the chaos schedule's deterministic faults land on.
	events := make(chan rxEvent, 1<<12)
	recvStop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer close(events)
		for {
			block, err := rxc.Recv()
			var ev rxEvent
			switch {
			case err == nil:
				ev = rxEvent{block: block}
			case errors.Is(err, iqstream.ErrStreamGap):
				ev = rxEvent{gap: true}
			default:
				return // closed (watchdog or Close): drained as far as possible
			}
			lastProgress.Store(obs.Now())
			select {
			case events <- ev:
			case <-recvStop:
				return
			}
		}
	}()

	rep := runReceiver(events, rx, met, lengths, maxBurst, logf)
	close(recvStop)
	close(stopWatchdog)
	<-watchdogDone
	<-txDone
	rxc.Close()
	<-readerDone

	rep.FramesSent = frames
	rep.FramesLost = frames - rep.FramesReceived
	rep.SamplesSent = samplesSent.Load()
	rep.SimSeconds = float64(rep.SamplesSent) / DefaultLinkRate
	rep.Reconnects = met.Net.Reconnects.Load()
	rep.StreamGaps = met.Net.StreamGaps.Load()
	rep.Reacquired = met.Net.Reacquired.Load()
	rep.Evictions = met.Hub.RxEvictions.Load()
	rep.HubDrops = met.Hub.RxQueueDrops.Load()
	rep.WallSeconds = float64(obs.Now()-start) / 1e9
	logf("%s", rep.String())
	return rep, nil
}

// rxEvent is one unit from the reader goroutine: a mixed block, or a
// stream-gap marker after a reconnect.
type rxEvent struct {
	block []complex128
	gap   bool
}

// runReceiver is the streaming receive pipeline: accumulate the mixed
// stream, decode bursts in frame order, skip the frame counter past
// bursts that never arrive, and treat every reconnect gap as a clean
// re-acquisition point.
func runReceiver(events <-chan rxEvent, rx *core.Receiver, met *obs.Pipeline,
	lengths []int, maxBurst int, logf func(string, ...any)) Report {
	var rep Report
	frames := len(lengths)
	window := make([]complex128, 0, 3*maxBurst+defaultHubBlock)
	accounted := 0 // received + skipped-as-lost, bounds the loop
	for accounted < frames {
		ev, ok := <-events
		if !ok {
			return rep // reader done: drained as far as possible
		}
		if ev.gap {
			// Samples spanning the gap are gone: drop the partial
			// window and restart acquisition on the fresh stream.
			window = window[:0]
			met.Net.Reacquired.Inc()
			rep.Reacquired++
			continue
		}
		window = append(window, ev.block...)
	decode:
		for accounted < frames {
			// The frame counter names the burst the receiver expects
			// next; its exact length is known from the probe walk.
			fr := int(rx.FrameCounter())
			if fr >= frames {
				return rep
			}
			burstLen := lengths[fr]
			// Attempt a decode once the window could hold the whole
			// burst plus a little slack for chaos-induced splices; skip
			// the frame counter forward only when a window a full extra
			// burst larger has no trace of the expected preamble (the
			// burst is gone, not late).
			if len(window) < burstLen+defaultHubBlock {
				break decode
			}
			_, stats, err := rx.DecodeBurst(window)
			switch {
			case err == nil:
				rep.FramesReceived++
				accounted++
				window = consume(window, stats.AcquisitionOffset+burstLen)
			case errors.Is(err, core.ErrNoPreamble):
				if len(window) < burstLen+maxBurst+defaultHubBlock {
					// The burst may simply not be complete yet.
					break decode
				}
				// A full skip window with no preamble: that frame is
				// lost; advance the counter and retry the same samples
				// against the next frame's preamble.
				rx.SkipFrame()
				accounted++
				logf("soak: frame %d skipped (no preamble in %d samples)", fr, len(window))
				// Keep the window: it likely holds the next burst.
			default:
				// Acquired but failed to decode: chaos got the body,
				// or the acquisition latched onto a corrupted overlap
				// region. Consume only just past the acquisition point
				// — consuming a whole burst length here would eat into
				// the next intact burst and turn one corrupted frame
				// into a self-sustaining loss cascade.
				accounted++
				logf("soak: frame %d lost: %v", fr, err)
				window = consume(window, stats.AcquisitionOffset+defaultHubBlock)
			}
		}
	}
	return rep
}

// consume drops the first n samples of the window in place, so the
// backing array is reused instead of regrown every burst.
func consume(window []complex128, n int) []complex128 {
	if n > len(window) {
		n = len(window)
	}
	rest := copy(window, window[n:])
	return window[:rest]
}
