// Command bhsstx is a networked BHSS transmitter: it connects to a bhssair
// hub and sends framed payloads as bandwidth-hopping bursts. The hub link
// is a ReconnectingClient: a transport fault mid-run redials with seeded
// exponential backoff and the stream continues, losing at most the burst
// that was in flight.
//
// Usage:
//
//	bhsstx -hub 127.0.0.1:4200 -seed 42 -pattern parabolic \
//	       -count 100 -payload "telemetry frame" -gain 0
package main

import (
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
		log.Fatalf("bhsstx: %v", err)
	}
}

// run keeps main a thin exit-code adapter: every failure flows back here as
// an error, so deferred cleanup actually runs (log.Fatalf skips defers).
func run() (err error) {
	var (
		hubAddr    = flag.String("hub", "127.0.0.1:4200", "bhssair hub address")
		seed       = flag.Uint64("seed", 42, "pre-shared link seed")
		pattern    = flag.String("pattern", "linear", "hopping pattern: fixed, linear, exponential, parabolic")
		count      = flag.Int("count", 10, "number of frames to send (0 = forever)")
		payload    = flag.String("payload", "bandwidth hopping spread spectrum", "frame payload")
		gainDB     = flag.Float64("gain", 0, "transmit gain in dB at the hub port")
		linkID     = flag.Uint("link", 0, "hub link (RF session) to transmit on; 0 is the default shared medium")
		gapMS      = flag.Int("gap", 50, "inter-frame gap in milliseconds")
		impairSpec = flag.String("impair", "", "transmit-chain impairment spec, e.g. cfo=2e3,ppm=20 (empty = ideal)")
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
	tx, err := core.NewTransmitter(cfg)
	if err != nil {
		return err
	}
	front, err := impair.NewFromSpec(*impairSpec, cfg.SampleRate, *seed)
	if err != nil {
		return err
	}
	met := obs.NewPipeline()
	if *debugAddr != "" {
		tx.SetObserver(met)
		srv, addr, err := obs.ServeDebug(*debugAddr, met)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer srv.Close()
		log.Printf("debug server on http://%s/debug/bhss", addr)
	}
	client, err := iqstream.DialTxLinkReconnecting(*hubAddr, *gainDB, iqstream.LinkOpts{Link: uint32(*linkID)}, iqstream.ReconnectConfig{
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

	log.Printf("transmitting %q frames with %s hopping (seed %d)", *payload, p, *seed)
	for i := 0; *count == 0 || i < *count; i++ {
		burst, err := tx.EncodeFrame([]byte(*payload))
		if err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		// The transmit chain's own hardware imperfections, streamed so
		// oscillator and clock state carry across frames.
		samples := burst.Samples
		if front.Len() > 0 {
			samples = front.Process(samples)
		}
		if err := client.Send(samples); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		log.Printf("frame %d: %d samples over %d hops", i, len(burst.Samples), len(burst.Segments))
		if *gapMS > 0 {
			time.Sleep(time.Duration(*gapMS) * time.Millisecond)
		}
	}
	if n := client.Reconnects(); n > 0 {
		log.Printf("link: %d reconnects", n)
	}
	return nil
}
