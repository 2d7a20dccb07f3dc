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
	go readEvents(client.Recv, front, events)

	s := &session{rx: rx, count: *count}
	idle := time.Duration(*idleMS) * time.Millisecond

	log.Printf("receiving with %s hopping (seed %d)", p, *seed)
	streamOpen := true
	for streamOpen && !s.done() {
		settled := false
		select {
		case ev, ok := <-events:
			if !ok {
				streamOpen = false
				settled = true
				break
			}
			if ev.gap {
				// The spanning burst is unrecoverable: its samples are
				// split across the discontinuity. Count it lost, drop the
				// partial window and re-arm acquisition on the fresh
				// stream, which resumes at a wire-block boundary.
				if len(s.window) > 0 {
					s.lost++
					log.Printf("stream gap: dropped %d partial samples", len(s.window))
					s.window = s.window[:0]
				}
				met.Net.Reacquired.Inc()
				s.gapped = true
				continue
			}
			s.window = append(s.window, ev.block...)
		case <-time.After(idle):
			settled = true
		}
		s.decodeWindow(settled)
	}
	fmt.Printf("received %d frames, lost %d\n", s.received, s.lost)
	if n := client.Reconnects(); n > 0 {
		fmt.Printf("link: %d reconnects, %d stream gaps\n", n, met.Net.StreamGaps.Load())
	}
	return nil
}

// readEvents forwards the blocks recv returns to events, each in storage of
// its own, and a gap marker for each ErrStreamGap. It closes events when
// recv fails otherwise (the client closed).
func readEvents(recv func() ([]complex128, error), front *impair.Chain, events chan<- rxEvent) {
	defer close(events)
	//bhss:allow(goroleak) run passes client.Recv, which fails once run's deferred Close shuts the client
	for {
		block, err := recv()
		if err != nil {
			if errors.Is(err, iqstream.ErrStreamGap) {
				events <- rxEvent{gap: true}
				continue
			}
			return
		}
		// This receiver's own front end distorts the stream before any
		// DSP sees it; the chain is streaming, so block boundaries do not
		// appear in its output. Only this goroutine touches it. The block
		// is valid only until the next recv, and ProcessAppend writes
		// fresh storage: the chain's output, or a copy when it is empty.
		events <- rxEvent{block: front.ProcessAppend(make([]complex128, 0, len(block)+8), block)}
	}
}

// worstSamples is the worst-case burst: a max-length frame entirely on the
// narrowest bandwidth. A window that long holds any burst that starts at its
// head; beyond twice that, the head cannot be part of a still-incomplete
// burst and stale samples are dropped.
const worstSamples = (2*127 + 16) * 16 * 128

// session is the receive loop's decode state: the capture window and the
// frame tallies.
type session struct {
	rx *core.Receiver
	// count is how many frames to receive before reporting (0 = forever).
	count          int
	window         []complex128
	received, lost int
	// gapped marks that the stream reconnected since the last successful
	// decode: bursts swallowed whole by the gap leave the frame counter
	// behind the transmitter's, so idle ErrNoPreamble results are
	// resolved by skipping frames instead of waiting forever.
	gapped bool
}

// done reports whether the session has accounted for count frames.
func (s *session) done() bool {
	return s.count > 0 && s.received+s.lost >= s.count
}

// decodeWindow decodes the bursts at the head of the window in frame order.
// settled reports that no samples are arriving (the stream idled or
// closed), so the window holds every burst it will; otherwise a decode is
// attempted only once the window could hold a whole burst. The hub streams
// bursts back to back, so after each decoded burst exactly its samples are
// dropped and the next frame is tried on what remains.
func (s *session) decodeWindow(settled bool) {
	for len(s.window) > 0 && (settled || len(s.window) >= worstSamples) && !s.done() {
		got, stats, err := s.rx.DecodeBurst(s.window)
		switch {
		case err == nil:
			s.received++
			s.gapped = false
			fmt.Printf("frame %d: %q (metric %.1f, offset %d)\n",
				s.received+s.lost, got, stats.MeanMetric, stats.AcquisitionOffset)
			s.window = consume(s.window, stats.AcquisitionOffset+stats.BurstSamples)
		case errors.Is(err, core.ErrNoPreamble):
			if s.gapped && settled {
				// The stream has gone quiet and the expected preamble is
				// not in it: that frame fell into the reconnect gap.
				// Advance past it so later bursts can still acquire.
				s.rx.SkipFrame()
				s.lost++
				log.Printf("frame lost in stream gap (counter now %d)", s.rx.FrameCounter())
				return
			}
			// No burst here yet; cap the window so it cannot grow
			// without bound on a silent-but-noisy channel.
			if len(s.window) > 2*worstSamples {
				s.window = consume(s.window, len(s.window)-worstSamples)
			}
			return
		case errors.Is(err, core.ErrNonFiniteInput):
			// Nothing in this window can be decoded.
			s.lost++
			log.Printf("frame lost: %v", err)
			s.window = s.window[:0]
		default:
			// Acquired but failed to decode. Drop only just past the
			// acquisition point: the next burst may follow closely, and
			// the frame counter has moved on to its preamble.
			s.lost++
			log.Printf("frame lost: %v", err)
			s.window = consume(s.window, stats.AcquisitionOffset+1)
		}
	}
}

// consume drops the first n samples of the window in place, so the
// backing array is reused instead of regrown every burst.
func consume(window []complex128, n int) []complex128 {
	n = min(n, len(window))
	rest := copy(window, window[n:])
	return window[:rest]
}
