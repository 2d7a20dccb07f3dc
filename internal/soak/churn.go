package soak

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bhss/internal/iqstream"
	"bhss/internal/obs"
	"bhss/internal/prng"
)

// Churn defaults: eight workers cycling 26 sessions each over a pool of
// eight shared link IDs is 208 sessions — enough concurrent admit/evict
// traffic to exercise every registry transition while staying under a
// second of wall clock, so the churn soak can run under the race detector
// in CI on every push.
const (
	DefaultChurnWorkers = 8
	DefaultChurnRounds  = 26
	// churnLinkPool is how many link IDs (1..churnLinkPool) the churners
	// share, so admissions and evictions of the same ID race.
	churnLinkPool = 8
	// churnChaos parameterizes the fault proxy some sessions dial through.
	churnChaos         = "latency=1:1,reset=0.05,trunc=0.1,short=0.3"
	defaultChurnBlock  = 256
	measuredChurnLink  = 99 // outside the churn pool, never shared
	churnSettleTimeout = 10 * time.Second
)

// ChurnConfig parameterizes one churn soak run.
type ChurnConfig struct {
	// Seed drives every random choice: session variants, link choices,
	// and the chaos proxy's fault schedule.
	Seed uint64
	// Workers is the number of concurrent churners (0 = default).
	Workers int
	// Rounds is sessions per worker (0 = default).
	Rounds int
	// Metrics, when non-nil, receives the run's hub counters.
	Metrics *obs.Pipeline
	// Logf receives progress events; nil silences them.
	Logf func(format string, args ...any)
}

// ChurnReport is what a churn soak observed.
type ChurnReport struct {
	Sessions        int   // total peer sessions opened (all variants)
	MidHandshake    int   // sessions dropped mid-handshake line
	Garbage         int   // sessions that sent a non-protocol byte stream
	Proxied         int   // sessions dialed through the chaos proxy
	VerifiedSamples int64 // measured-link samples checked for exact identity
	LinksAdmitted   int64 // hub admissions over the run
	LinksEvicted    int64 // hub evictions over the run
}

func (r ChurnReport) String() string {
	return fmt.Sprintf(
		"churn: sessions=%d (midhs=%d garbage=%d proxied=%d) verified=%d admitted=%d evicted=%d",
		r.Sessions, r.MidHandshake, r.Garbage, r.Proxied,
		r.VerifiedSamples, r.LinksAdmitted, r.LinksEvicted)
}

// Churn runs a join/leave churn soak against a multi-link hub: workers
// race sessions of every flavor — clean transmitters and receivers,
// peers that vanish mid-handshake, peers that speak garbage, peers routed
// through a fault-injecting chaos proxy — over a shared pool of link IDs,
// while one measured link streams a known sample sequence end to end and
// verifies every sample exactly. It returns an error if the measured link
// ever sees a wrong sample (cross-link bleed), if any churn session fails
// in a way the protocol does not allow, or if the hub's registry fails to
// settle afterwards with admissions balancing evictions (a lost or double
// eviction).
func Churn(cfg ChurnConfig) (ChurnReport, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultChurnWorkers
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = DefaultChurnRounds
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	met := cfg.Metrics
	if met == nil {
		met = obs.NewPipeline()
	}

	hub, err := iqstream.NewHub("127.0.0.1:0", iqstream.HubConfig{
		BlockSize: defaultChurnBlock,
		Seed:      cfg.Seed,
		Metrics:   &met.Hub,
		Logf:      logf,
	})
	if err != nil {
		return ChurnReport{}, fmt.Errorf("churn: hub: %w", err)
	}
	defer hub.Close()
	go func() {
		if err := hub.Serve(); err != nil {
			logf("churn: hub serve: %v", err)
		}
	}()
	addr := hub.Addr().String()

	proxy, err := iqstream.NewChaosProxyFromSpec(
		"127.0.0.1:0", addr, churnChaos, cfg.Seed, logf)
	if err != nil {
		return ChurnReport{}, fmt.Errorf("churn: proxy: %w", err)
	}
	defer proxy.Close()
	go func() {
		if err := proxy.Serve(); err != nil {
			logf("churn: proxy serve: %v", err)
		}
	}()

	// The measured link: a lockstep tx/rx pair on a link ID no churner
	// touches, streaming an exact arithmetic sample sequence. Any foreign
	// sample — another link's traffic, a stale buffer, a pool aliasing bug
	// — is an immediate hard failure.
	mo := iqstream.LinkOpts{Link: measuredChurnLink}
	mrx, err := iqstream.DialRxLink(addr, mo)
	if err != nil {
		return ChurnReport{}, fmt.Errorf("churn: measured rx: %w", err)
	}
	defer mrx.Close()
	mtx, err := iqstream.DialTxLink(addr, 0, mo)
	if err != nil {
		return ChurnReport{}, fmt.Errorf("churn: measured tx: %w", err)
	}
	defer mtx.Close()

	stopMeasured := make(chan struct{})
	measuredErr := make(chan error, 1)
	var verified atomic.Int64
	var measuredWG sync.WaitGroup
	measuredWG.Add(1)
	go func() {
		defer measuredWG.Done()
		block := make([]complex128, defaultChurnBlock)
		next := complex128(0)
		for {
			select {
			case <-stopMeasured:
				return
			default:
			}
			for i := range block {
				block[i] = next + complex(float64(i), 1)
			}
			if err := mtx.Send(block); err != nil {
				measuredErr <- fmt.Errorf("churn: measured send: %w", err)
				return
			}
			//bhss:allow(detrand) transport deadline: wall clock bounds the recv and never feeds the simulation
			if err := mrx.SetRecvDeadline(time.Now().Add(churnSettleTimeout)); err != nil {
				measuredErr <- err
				return
			}
			got := 0
			for got < len(block) {
				blk, err := mrx.Recv()
				if err != nil {
					measuredErr <- fmt.Errorf("churn: measured recv: %w", err)
					return
				}
				for _, v := range blk {
					want := next + complex(float64(got), 1)
					//bhss:allow(floateq) exact-value check is the point: the payload is integer-valued and any mix arithmetic touching it is a bug
					if v != want {
						measuredErr <- fmt.Errorf(
							"churn: measured link sample %d = %v, want %v: cross-link bleed under churn",
							got, v, want)
						return
					}
					got++
				}
			}
			verified.Add(int64(got))
			next += complex(float64(len(block)), 0)
		}
	}()

	// The churners.
	var midHS, garbage, proxied atomic.Int64
	var workerWG sync.WaitGroup
	workerErr := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		workerWG.Add(1)
		go func(w int) {
			defer workerWG.Done()
			rng := prng.New(cfg.Seed ^ (uint64(w)+1)*0x9e3779b97f4a7c15)
			block := make([]complex128, defaultChurnBlock)
			for round := 0; round < cfg.Rounds; round++ {
				link := uint32(1 + rng.Intn(churnLinkPool))
				o := iqstream.LinkOpts{Link: link}
				switch rng.Intn(6) {
				case 0: // clean transmitter session
					tx, err := iqstream.DialTxLink(addr, float64(rng.Intn(7))-3, o)
					if err != nil {
						workerErr <- fmt.Errorf("churn: worker %d tx: %w", w, err)
						return
					}
					for b := 0; b < 1+rng.Intn(3); b++ {
						if err := tx.Send(block); err != nil {
							break // hub may be evicting the link under us
						}
					}
					tx.Close()
				case 1: // clean receiver session
					rx, err := iqstream.DialRxLink(addr, o)
					if err != nil {
						workerErr <- fmt.Errorf("churn: worker %d rx: %w", w, err)
						return
					}
					rx.Close()
				case 2: // tagged jammer + excluding sense receiver
					jam, err := iqstream.DialTxLink(addr, 0, iqstream.LinkOpts{Link: link, Jam: true})
					if err != nil {
						workerErr <- fmt.Errorf("churn: worker %d jam: %w", w, err)
						return
					}
					sense, err := iqstream.DialRxLink(addr, iqstream.LinkOpts{Link: link, Exclude: "jam"})
					if err != nil {
						jam.Close()
						workerErr <- fmt.Errorf("churn: worker %d sense: %w", w, err)
						return
					}
					_ = jam.Send(block)
					sense.Close()
					jam.Close()
				case 3: // vanish mid-handshake line
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						workerErr <- fmt.Errorf("churn: worker %d midhs dial: %w", w, err)
						return
					}
					_, _ = conn.Write([]byte("IQHUB t")) // never finished
					conn.Close()
					midHS.Add(1)
				case 4: // speak garbage
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						workerErr <- fmt.Errorf("churn: worker %d garbage dial: %w", w, err)
						return
					}
					_, _ = conn.Write([]byte("GET / HTTP/1.1\r\n\r\n\x00\xff\x7f"))
					conn.Close()
					garbage.Add(1)
				case 5: // full session through the chaos proxy; faults expected
					proxied.Add(1)
					tx, err := iqstream.DialTxLink(proxy.Addr().String(), 0, o)
					if err != nil {
						continue // the proxy may reset the handshake itself
					}
					for b := 0; b < 1+rng.Intn(3); b++ {
						if err := tx.Send(block); err != nil {
							break
						}
					}
					tx.Close()
				}
			}
		}(w)
	}
	workerWG.Wait()
	close(stopMeasured)
	// Unblock the measured pair if it is parked in a read.
	measuredWG.Wait()

	select {
	case err := <-workerErr:
		return ChurnReport{}, err
	default:
	}
	select {
	case err := <-measuredErr:
		return ChurnReport{}, err
	default:
	}

	// Let the registry settle: once the churners' connections unwind, every
	// pool link must be evicted exactly once — admissions balance evictions
	// with only the measured link still live.
	//bhss:allow(detrand) settle timeout: wall clock bounds the wait and never feeds the simulation
	deadline := time.Now().Add(churnSettleTimeout)
	for {
		if met.Hub.ActiveLinks.Load() == 1 {
			break
		}
		//bhss:allow(detrand) settle timeout: wall clock bounds the wait and never feeds the simulation
		if time.Now().After(deadline) {
			return ChurnReport{}, fmt.Errorf(
				"churn: registry did not settle: %v links still live (admitted %d, evicted %d)",
				met.Hub.ActiveLinks.Load(), met.Hub.LinksAdmitted.Load(), met.Hub.LinksEvicted.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	admitted, evicted := met.Hub.LinksAdmitted.Load(), met.Hub.LinksEvicted.Load()
	if admitted != evicted+1 {
		return ChurnReport{}, fmt.Errorf(
			"churn: eviction accounting broken: admitted %d links, evicted %d, 1 live — want admitted == evicted+1",
			admitted, evicted)
	}

	rep := ChurnReport{
		Sessions:        cfg.Workers * cfg.Rounds,
		MidHandshake:    int(midHS.Load()),
		Garbage:         int(garbage.Load()),
		Proxied:         int(proxied.Load()),
		VerifiedSamples: verified.Load(),
		LinksAdmitted:   admitted,
		LinksEvicted:    evicted,
	}
	logf("%s", rep)
	return rep, nil
}
