// Command bhssrx is a networked BHSS receiver: it connects to a bhssair
// hub, accumulates the mixed IQ stream, and attempts burst acquisition via
// preamble correlation whenever the stream pauses (bursty traffic) or the
// capture window fills. Decoded frames and link statistics go to stdout.
//
// The hub link is a ReconnectingClient: transport faults redial with
// seeded exponential backoff, and each reconnect surfaces as one stream
// gap — the partial burst window is dropped, preamble search re-arms, and
// any burst spanning the gap is counted lost instead of wedging the
// decoder on spliced samples.
//
// Usage:
//
//	bhssrx -hub 127.0.0.1:4200 -seed 42 -pattern parabolic -count 100
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"bhss/internal/core"
	"bhss/internal/hop"
	"bhss/internal/impair"
	"bhss/internal/iqstream"
	"bhss/internal/obs"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("bhssrx: %v", err)
	}
}

// rxEvent is one unit from the receive goroutine: a mixed block, or a
// stream-gap marker after a successful reconnect.
type rxEvent struct {
	block []complex128
	gap   bool
}

// run keeps main a thin exit-code adapter: every failure flows back here as
// an error, so deferred cleanup actually runs (log.Fatalf skips defers).
func run() (err error) {
	var (
		hubAddr    = flag.String("hub", "127.0.0.1:4200", "bhssair hub address")
		seed       = flag.Uint64("seed", 42, "pre-shared link seed")
		pattern    = flag.String("pattern", "linear", "hopping pattern: fixed, linear, exponential, parabolic")
		count      = flag.Int("count", 10, "frames to receive before reporting (0 = forever)")
		idleMS     = flag.Int("idle", 150, "stream-idle time in ms after which a decode is attempted")
		linkID     = flag.Uint("link", 0, "hub link (RF session) to receive from; 0 is the default shared medium")
		impairSpec = flag.String("impair", "", "receiver front-end impairment spec, e.g. cfo=2e3,ppm=20,quant=8 (empty = ideal)")
		retries    = flag.Int("retries", 0, "dial attempts per (re)connect cycle (0 = default, negative = forever)")
		backoff    = flag.Duration("backoff", 0, "first reconnect backoff delay (0 = default)")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/bhss, /debug/vars and /debug/pprof on this address (empty = off)")
	)
	flag.Parse()

	p, err := hop.ParsePattern(*pattern)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(*seed)
	cfg.Pattern = p
	cfg.Sync = core.PreambleSync
	rx, err := core.NewReceiver(cfg)
	if err != nil {
		return err
	}
	front, err := impair.NewFromSpec(*impairSpec, cfg.SampleRate, *seed)
	if err != nil {
		return err
	}
	met := obs.NewPipeline()
	if *debugAddr != "" {
		rx.SetObserver(met)
		srv, addr, err := obs.ServeDebug(*debugAddr, met)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer srv.Close()
		log.Printf("debug server on http://%s/debug/bhss", addr)
	}
	client, err := iqstream.DialRxLinkReconnecting(*hubAddr, iqstream.LinkOpts{Link: uint32(*linkID)}, iqstream.ReconnectConfig{
		BackoffBase: *backoff,
		MaxAttempts: *retries,
		Seed:        *seed,
		Metrics:     &met.Net,
		Logf:        log.Printf,
	})
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer func() {
		if cerr := client.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()

	events := make(chan rxEvent, 64)
	go func() {
		defer close(events)
		for {
			block, err := client.Recv()
			if err != nil {
				if errors.Is(err, iqstream.ErrStreamGap) {
					events <- rxEvent{gap: true}
					continue
				}
				return
			}
			// This receiver's own front end distorts the stream before any
			// DSP sees it; the chain is streaming, so block boundaries do
			// not appear in its output. Only this goroutine touches it.
			if front.Len() > 0 {
				block = front.ProcessAppend(make([]complex128, 0, len(block)+8), block)
			}
			events <- rxEvent{block: block}
		}
	}()

	// The worst-case burst: a max-length frame entirely on the narrowest
	// bandwidth. Beyond twice that, the head of the window cannot be part
	// of a still-incomplete burst and stale samples are dropped.
	const worstSamples = (2*127 + 16) * 16 * 128
	var window []complex128
	received, lost := 0, 0
	idle := time.Duration(*idleMS) * time.Millisecond
	// gapped marks that the stream reconnected since the last successful
	// decode: bursts swallowed whole by the gap leave the frame counter
	// behind the transmitter's, so idle ErrNoPreamble results are resolved
	// by skipping frames instead of waiting forever.
	gapped := false

	log.Printf("receiving with %s hopping (seed %d)", p, *seed)
	streamOpen := true
	for streamOpen && (*count == 0 || received+lost < *count) {
		attempt := false
		idled := false
		select {
		case ev, ok := <-events:
			if !ok {
				streamOpen = false
				attempt = len(window) > 0
				break
			}
			if ev.gap {
				// The spanning burst is unrecoverable: its samples are
				// split across the discontinuity. Count it lost, drop the
				// partial window and re-arm acquisition on the fresh
				// stream, which resumes at a wire-block boundary.
				if len(window) > 0 {
					lost++
					log.Printf("stream gap: dropped %d partial samples", len(window))
					window = window[:0]
				}
				met.Net.Reacquired.Inc()
				gapped = true
				break
			}
			window = append(window, ev.block...)
			if len(window) >= worstSamples {
				attempt = true
			}
		case <-time.After(idle):
			attempt = len(window) > 0
			idled = true
		}
		if !attempt {
			continue
		}
		got, stats, err := rx.DecodeBurst(window)
		switch {
		case err == nil:
			received++
			gapped = false
			fmt.Printf("frame %d: %q (metric %.1f, offset %d)\n",
				received+lost, got, stats.MeanMetric, stats.AcquisitionOffset)
			window = window[:0]
		case errors.Is(err, core.ErrNoPreamble):
			if gapped && idled {
				// The stream has gone quiet and the expected preamble is
				// not in it: that frame fell into the reconnect gap.
				// Advance past it so later bursts can still acquire.
				rx.SkipFrame()
				lost++
				log.Printf("frame lost in stream gap (counter now %d)", rx.FrameCounter())
				break
			}
			// No burst here yet; cap the window so it cannot grow
			// without bound on a silent-but-noisy channel.
			if len(window) > 2*worstSamples {
				window = append(window[:0:0], window[len(window)-worstSamples:]...)
			}
		default:
			lost++
			log.Printf("frame lost: %v", err)
			window = window[:0]
		}
	}
	fmt.Printf("received %d frames, lost %d\n", received, lost)
	if n := client.Reconnects(); n > 0 {
		fmt.Printf("link: %d reconnects, %d stream gaps\n", n, met.Net.StreamGaps.Load())
	}
	return nil
}
