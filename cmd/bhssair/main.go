// Command bhssair runs the virtual RF medium: the networked replacement for
// the paper's coax-and-T-connector testbed. Transmitters (bhsstx, bhssjam)
// and receivers (bhssrx) connect over TCP; the hub sums their IQ streams
// with per-port gain, adds the channel's AWGN and broadcasts the mixture.
//
// Usage:
//
//	bhssair -listen 127.0.0.1:4200 -noise 0.01
//	bhssair -chaos resetevery=500,trunc=0.01,seed=9   # fault-injecting air
//	bhssair -jam jam=reactive,delay=256,sense=1024,power=100
//
// With -chaos the hub itself moves to an ephemeral port and a fault
// injecting proxy (internal/iqstream.ChaosProxy) serves -listen instead,
// so every client experiences the configured resets, stalls, truncations
// and latency while the hub stays honest. With -jam the hub hosts the
// adversary itself on the default link: the jammer overhears each clean
// mixed block (before its own interference and the impairment chain) and
// its waveform is added to what every receiver gets. A bhssjam client gets
// the same self-hearing-free geometry over the wire — its sense stream
// excludes its own tagged contribution — so the hub-side position now
// differs mainly in seeing the mix before the front-end impairment chain.
//
// The hub carries many concurrent links (RF sessions): clients address one
// with -link, links are partitioned across min(GOMAXPROCS, 8) mixer
// goroutines, and admission past 4096 links is refused with "ERR hub
// full". The transport bounds (queue depths, deadlines, the slow-receiver
// stall budget) take the iqstream defaults (DESIGN.md §12, §17).
// SIGINT/SIGTERM trigger a graceful Shutdown that drains pending
// transmitter samples to the receivers before closing.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bhss/internal/impair"
	"bhss/internal/iqstream"
	"bhss/internal/jammer"
	"bhss/internal/obs"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("bhssair: %v", err)
	}
}

// run keeps main a thin exit-code adapter: every failure flows back here as
// an error, so deferred cleanup actually runs (log.Fatalf skips defers).
func run() error {
	var (
		listen     = flag.String("listen", "127.0.0.1:4200", "listen address")
		noise      = flag.Float64("noise", 0.01, "AWGN floor variance per sample")
		block      = flag.Int("block", 4096, "mixing block size in samples")
		seed       = flag.Uint64("seed", 1, "noise seed")
		impairSpec = flag.String("impair", "", "RF front-end impairment spec, e.g. cfo=2e3,ppm=20,phnoise=-80,quant=8 (empty = ideal)")
		jamSpec    = flag.String("jam", "", "hub-side adversary spec (jammer.ParseSpec grammar), e.g. jam=reactive,delay=256,sense=1024,power=100; senses the clean pre-jamming mix (empty = none)")
		rate       = flag.Float64("rate", 20, "nominal sample rate in MHz (scales the impairment spec's physical units)")
		quiet      = flag.Bool("quiet", false, "suppress connection logs")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/bhss, /debug/vars and /debug/pprof on this address (empty = off)")

		chaosSpec = flag.String("chaos", "", "fault-injection spec, e.g. latency=5:2,reset=0.001,trunc=0.01,seed=9 (empty = no proxy)")
		drainWait = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget on SIGINT/SIGTERM")
	)
	flag.Parse()

	front, err := impair.NewFromSpec(*impairSpec, *rate, *seed)
	if err != nil {
		return err
	}

	cfg := iqstream.HubConfig{
		BlockSize: *block,
		NoiseVar:  *noise,
		Seed:      *seed,
		Impair:    front,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	// The hub-side adversary: a sensing follower jams what it overhears,
	// anything else free-runs against the mix clock.
	var follower jammer.TxAware
	if *jamSpec != "" {
		src, err := jammer.NewFromSpec(*jamSpec, *rate, *seed)
		if err != nil {
			return err
		}
		if f, ok := src.(jammer.TxAware); ok {
			follower = f
			cfg.Jam = f.Jam
		} else {
			cfg.Jam = func(heard []complex128) []complex128 { return src.Emit(len(heard)) }
		}
	}
	if *debugAddr != "" {
		p := obs.NewPipeline()
		front.SetObserver(&p.Impair)
		if follower != nil {
			follower.SetObserver(&p.Jam)
		}
		cfg.Metrics = &p.Hub
		srv, addr, err := obs.ServeDebug(*debugAddr, p)
		if err != nil {
			return err
		}
		defer srv.Close()
		log.Printf("debug server on http://%s/debug/bhss", addr)
	}

	// Under -chaos the public address belongs to the fault injector; the
	// hub hides on an ephemeral port behind it.
	hubAddr := *listen
	if *chaosSpec != "" {
		hubAddr = "127.0.0.1:0"
	}
	hub, err := iqstream.NewHub(hubAddr, cfg)
	if err != nil {
		return err
	}
	if *chaosSpec != "" {
		proxy, err := iqstream.NewChaosProxyFromSpec(*listen, hub.Addr().String(), *chaosSpec, *seed, cfg.Logf)
		if err != nil {
			hub.Close()
			return err
		}
		defer proxy.Close()
		go proxy.Serve()
		log.Printf("chaos proxy on %s -> hub %s (%s)", proxy.Addr(), hub.Addr(), *chaosSpec)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("%v: draining hub (budget %v)", s, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := hub.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("virtual air hub listening on %s (noise %.4g, block %d, impair %q, jam %q)", *listen, *noise, *block, *impairSpec, *jamSpec)
	return hub.Serve()
}
