// Command bhssjam is a networked jammer: it connects to a bhssair hub and
// streams interference of a configurable kind and power, reproducing the
// attacker of the paper's testbed. Like bhsstx it rides a
// ReconnectingClient, so a transport fault pauses the interference for one
// backoff cycle instead of killing the attack.
//
// Usage:
//
//	bhssjam -hub 127.0.0.1:4200 -jam jam=bandlimited,bw=2.5,power=100
//	bhssjam -jam jam=hopping,pattern=exponential,dwell=65536,power=100
//	bhssjam -jam jam=reactive,delay=256,sense=1024,power=100
//
// The -jam flag takes a jammer spec (jammer.ParseSpec grammar) naming any
// adversary in the zoo; its power is linear, relative to a unit-power
// signal. The default is band-limited noise 2.5 MHz wide at power 100
// (20 dB above the signal). Sensing kinds (reactive, multitone, adaptive)
// additionally open a receive stream from the hub and follow what they
// overhear. The jammer connects with the hub's jam role under a
// per-process tag, and its sense stream excludes that tag (EXCL in the
// handshake), so the follower hears the victim's transmission without its
// own interference looped back — the same overhearing geometry as the
// paper's testbed attacker, whose sense antenna sat outside its own
// transmit beam.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"

	"bhss/internal/impair"
	"bhss/internal/iqstream"
	"bhss/internal/jammer"
	"bhss/internal/obs"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("bhssjam: %v", err)
	}
}

// run keeps main a thin exit-code adapter: every failure flows back here as
// an error, so deferred cleanup actually runs (log.Fatalf skips defers).
func run() (err error) {
	var (
		hubAddr    = flag.String("hub", "127.0.0.1:4200", "bhssair hub address")
		jamSpec    = flag.String("jam", "jam=bandlimited,bw=2.5,power=100", "jammer spec (jammer.ParseSpec grammar; power is linear), e.g. jam=reactive,delay=256,sense=1024,power=100")
		rate       = flag.Float64("rate", 20, "sample rate in MHz")
		seed       = flag.Uint64("seed", 7, "jammer noise seed")
		linkID     = flag.Uint("link", 0, "hub link (RF session) to jam; 0 is the default shared medium")
		blocks     = flag.Int("blocks", 0, "number of 4096-sample blocks to emit (0 = forever)")
		impairSpec = flag.String("impair", "", "jammer hardware impairment spec, e.g. cfo=5e3,quant=8 (empty = ideal)")
		retries    = flag.Int("retries", 0, "dial attempts per (re)connect cycle (0 = default, negative = forever)")
		backoff    = flag.Duration("backoff", 0, "first reconnect backoff delay (0 = default)")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/bhss, /debug/vars and /debug/pprof on this address (empty = off)")
	)
	flag.Parse()

	front, err := impair.NewFromSpec(*impairSpec, *rate, *seed)
	if err != nil {
		return err
	}

	src, err := jammer.NewFromSpec(*jamSpec, *rate, *seed)
	if err != nil {
		return err
	}

	met := obs.NewPipeline()
	if *debugAddr != "" {
		// The jammer has no instrumented DSP chain of its own; the
		// endpoint's value here is pprof plus the link counters.
		srv, addr, derr := obs.ServeDebug(*debugAddr, met)
		if derr != nil {
			return fmt.Errorf("debug server: %w", derr)
		}
		defer srv.Close()
		log.Printf("debug server on http://%s/debug/bhss", addr)
	}

	// The jam role tags this jammer's contribution so its own sense stream
	// can exclude it; the seed disambiguates multiple jammers on one link.
	tag := fmt.Sprintf("jam.%d", *seed)
	client, err := iqstream.DialTxLinkReconnecting(*hubAddr, 0, iqstream.LinkOpts{
		Link: uint32(*linkID),
		Tag:  tag,
		Jam:  true,
	}, iqstream.ReconnectConfig{
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

	// A sensing adversary also opens a receive stream and follows the
	// medium. The stream excludes this jammer's own tagged contribution
	// (EXCL in the handshake), so the follower estimates the victim's
	// signal rather than chasing its own interference looped back. The
	// exclusion bypasses the hub's front-end impairment chain: it models
	// the sensing client's own receive front end, not the victim's.
	follower, _ := src.(jammer.TxAware)
	var sense *iqstream.ReconnectingClient
	if follower != nil {
		sense, err = iqstream.DialRxLinkReconnecting(*hubAddr, iqstream.LinkOpts{
			Link:    uint32(*linkID),
			Exclude: tag,
		}, iqstream.ReconnectConfig{
			BackoffBase: *backoff,
			MaxAttempts: *retries,
			Seed:        *seed + 1,
			Metrics:     &met.Net,
			Logf:        log.Printf,
		})
		if err != nil {
			return fmt.Errorf("dial sense: %w", err)
		}
		defer func() {
			if cerr := sense.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("close sense: %w", cerr)
			}
		}()
	}

	log.Printf("jamming: %s", *jamSpec)
	const block = 4096
	for i := 0; *blocks == 0 || i < *blocks; i++ {
		var out []complex128
		if follower != nil {
			heard, rerr := sense.Recv()
			if errors.Is(rerr, iqstream.ErrStreamGap) {
				// The overheard stream is discontinuous across a gap:
				// re-synchronize the follower instead of feeding it a
				// spliced window.
				follower.NewBurst()
				i--
				continue
			}
			if rerr != nil {
				return fmt.Errorf("sense: %w", rerr)
			}
			out = follower.Jam(heard)
		} else {
			out = src.Emit(block)
		}
		// Even the attacker's hardware is imperfect; stream its blocks
		// through the impairment chain so oscillator state persists.
		if front.Len() > 0 {
			out = front.Process(out)
		}
		if err := client.Send(out); err != nil {
			return fmt.Errorf("send: %w", err)
		}
	}
	return nil
}
