package soak

import (
	"fmt"
	"sync"
	"time"

	"bhss/internal/iqstream"
	"bhss/internal/obs"
)

// MultiLink defaults: each link pushes SimSeconds of traffic at LinkRate
// through its own lockstep tx/rx pair, unpaced, so the run finishes as
// fast as the hub can mix — the wall clock IS the measurement.
const (
	DefaultMultiLinkLinks = 16
	defaultMultiBlock     = 4096
)

// MultiLinkConfig parameterizes one multi-link capacity run.
type MultiLinkConfig struct {
	// Seed feeds the hub's noise derivation (the payload itself is a
	// deterministic arithmetic sequence, independent of Seed).
	Seed uint64
	// Links is the number of concurrent links, each with its own tx/rx
	// pair (0 = DefaultMultiLinkLinks).
	Links int
	// LinkRate is the nominal per-link rate in samples per second used
	// for the simulated-time accounting (0 = DefaultLinkRate).
	LinkRate float64
	// SimSeconds is the simulated traffic per link, in seconds at
	// LinkRate (0 = DefaultSimSeconds).
	SimSeconds float64
	// Shards overrides the hub's mixer-shard count (0 = hub default).
	Shards int
	// Metrics, when non-nil, receives the run's hub counters.
	Metrics *obs.Pipeline
	// Logf receives progress events; nil silences them.
	Logf func(format string, args ...any)
}

// MultiLinkReport is one capacity run's measurement.
type MultiLinkReport struct {
	Links          int
	SimSeconds     float64 // simulated traffic per link
	WallSeconds    float64 // wall clock for every link to finish
	RTF            float64 // real-time factor: SimSeconds / WallSeconds
	SamplesPerLink int64
	TotalSamples   int64 // verified end to end across all links
}

func (r MultiLinkReport) String() string {
	return fmt.Sprintf("multilink: links=%d sim=%.1fs wall=%.2fs rtf=%.2f samples=%d",
		r.Links, r.SimSeconds, r.WallSeconds, r.RTF, r.TotalSamples)
}

// MultiLink measures how many concurrent links the hub sustains: N lockstep
// tx/rx pairs each push SimSeconds of traffic at LinkRate through their own
// link as fast as the mixer allows, and every delivered sample is checked
// against the link's private arithmetic sequence — the samples embed the
// link ID and block index, so any cross-link bleed or reordering under load
// is an exact-value failure, not a statistical one. The report's RTF is
// per-link simulated time over total wall time: RTF >= 1 means the hub
// carried all N links at least as fast as real time.
func MultiLink(cfg MultiLinkConfig) (MultiLinkReport, error) {
	if cfg.Links <= 0 {
		cfg.Links = DefaultMultiLinkLinks
	}
	if cfg.LinkRate <= 0 {
		cfg.LinkRate = DefaultLinkRate
	}
	if cfg.SimSeconds <= 0 {
		cfg.SimSeconds = DefaultSimSeconds
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var hubMet *obs.HubMetrics
	if cfg.Metrics != nil {
		hubMet = &cfg.Metrics.Hub
	}

	hub, err := iqstream.NewHub("127.0.0.1:0", iqstream.HubConfig{
		BlockSize: defaultMultiBlock,
		Seed:      cfg.Seed,
		Shards:    cfg.Shards,
		Metrics:   hubMet,
	})
	if err != nil {
		return MultiLinkReport{}, fmt.Errorf("multilink: hub: %w", err)
	}
	defer hub.Close()
	go func() {
		if err := hub.Serve(); err != nil {
			logf("multilink: hub serve: %v", err)
		}
	}()
	addr := hub.Addr().String()

	perLink := int64(cfg.SimSeconds * cfg.LinkRate)
	blocks := int(perLink / defaultMultiBlock)
	if blocks < 1 {
		blocks = 1
	}
	perLink = int64(blocks) * defaultMultiBlock

	errs := make(chan error, cfg.Links)
	var wg sync.WaitGroup
	//bhss:allow(detrand) the wall clock IS the measurement here: RTF is simulated time over wall time
	start := time.Now()
	for i := 0; i < cfg.Links; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := uint32(i + 1) // keep off link 0: its hooks are legacy state
			o := iqstream.LinkOpts{Link: id}
			rx, err := iqstream.DialRxLink(addr, o)
			if err != nil {
				errs <- fmt.Errorf("multilink: link %d rx: %w", id, err)
				return
			}
			defer rx.Close()
			tx, err := iqstream.DialTxLink(addr, 0, o)
			if err != nil {
				errs <- fmt.Errorf("multilink: link %d tx: %w", id, err)
				return
			}
			defer tx.Close()
			//bhss:allow(detrand) transport deadline: wall clock bounds the recv and never feeds the simulation
			if err := rx.SetRecvDeadline(time.Now().Add(DefaultTimeout)); err != nil {
				errs <- err
				return
			}
			block := make([]complex128, defaultMultiBlock)
			for b := 0; b < blocks; b++ {
				for s := range block {
					block[s] = complex(float64(id), float64(b*defaultMultiBlock+s))
				}
				if err := tx.Send(block); err != nil {
					errs <- fmt.Errorf("multilink: link %d send: %w", id, err)
					return
				}
				got := 0
				for got < len(block) {
					blk, err := rx.Recv()
					if err != nil {
						errs <- fmt.Errorf("multilink: link %d recv: %w", id, err)
						return
					}
					for _, v := range blk {
						want := complex(float64(id), float64(b*defaultMultiBlock+got))
						//bhss:allow(floateq) exact-value check is the point: the payload is integer-valued and any mix arithmetic touching it is a bug
						if v != want {
							errs <- fmt.Errorf(
								"multilink: link %d sample %d = %v, want %v: bleed or reorder under load",
								id, b*defaultMultiBlock+got, v, want)
							return
						}
						got++
					}
				}
			}
		}(i)
	}
	wg.Wait()
	//bhss:allow(detrand) the wall clock IS the measurement here: RTF is simulated time over wall time
	wall := time.Since(start).Seconds()
	select {
	case err := <-errs:
		return MultiLinkReport{}, err
	default:
	}

	rep := MultiLinkReport{
		Links:          cfg.Links,
		SimSeconds:     float64(perLink) / cfg.LinkRate,
		WallSeconds:    wall,
		SamplesPerLink: perLink,
		TotalSamples:   perLink * int64(cfg.Links),
	}
	if wall > 0 {
		rep.RTF = rep.SimSeconds / wall
	}
	logf("%s", rep)
	return rep, nil
}
