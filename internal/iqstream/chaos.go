package iqstream

import (
	"net"
	"sync"
	"time"

	"bhss/internal/prng"
	"bhss/internal/spec"
)

// Chaos spec grammar (documented in README.md and DESIGN.md §12). The
// lexical rules every spec grammar shares are stated once, in DESIGN.md
// §11 "Spec grammar", and implemented by internal/spec. The keys, in
// canonical order:
//
//	latency=<ms>[:<jitter_ms>]  per-chunk forwarding delay plus uniform
//	                            jitter in [0, jitter_ms)
//	stall=<p>:<ms>              with probability p per chunk, pause ms
//	                            before forwarding it
//	reset=<p>                   with probability p per chunk, hard-close
//	                            both sides of the link
//	resetevery=<n>              deterministically reset the link once n
//	                            bytes have been forwarded in a direction:
//	                            the fault lands at an exact stream offset
//	                            no matter how reads coalesce into chunks
//	                            (the soak tests' guaranteed-fault knob)
//	trunc=<p>                   with probability p, forward only a random
//	                            prefix of the chunk (mid-block truncation
//	                            on the wire), then reset
//	short=<p>                   with probability p, deliver the chunk as
//	                            several small writes (exercises partial
//	                            reads in the block codec)
//	drop=<p>                    with probability p, silently discard the
//	                            chunk — the surviving stream is spliced,
//	                            so the reader sees bad framing
//	seed=<uint64>               proxy seed override (default: the seed
//	                            passed to NewChaosProxy)
//
// Probabilities are per forwarded chunk (one upstream Read, ≤ 32 KiB) and
// must lie in [0, 1]; delays must be finite, non-negative and ≤ 60000 ms.
// All faults are drawn from internal/prng sub-sources derived from (seed,
// connection index, direction), so a given spec and connection history
// replays the same fault schedule.

// Chaos spec limits: a hostile spec cannot sleep a pump for more than a
// minute per chunk or push the reset offset beyond 1 GiB.
const (
	maxChaosMS         = 60_000
	maxChaosResetEvery = 1 << 30
)

// ChaosConfig is the parsed form of a chaos spec string. The zero value is
// a transparent proxy.
type ChaosConfig struct {
	LatencyMS       float64
	LatencyJitterMS float64

	StallProb float64
	StallMS   float64

	ResetProb  float64
	ResetEvery int // bytes per direction before the deterministic reset

	TruncProb      float64
	ShortWriteProb float64
	DropProb       float64

	Seed    uint64
	HasSeed bool
}

// ParseChaosSpec parses a chaos spec string. The empty string parses to
// the zero ChaosConfig. It never panics, whatever the input.
func ParseChaosSpec(spec string) (ChaosConfig, error) {
	var c ChaosConfig
	if _, err := c.grammar().Parse(spec); err != nil {
		return ChaosConfig{}, err
	}
	return c, nil
}

// String renders the config in canonical spec form: fixed key order,
// identity faults omitted. ParseChaosSpec(String()) reproduces the config
// exactly (the round-trip property FuzzParseChaosSpec pins).
func (c ChaosConfig) String() string { return c.grammar().Format() }

// grammar binds the chaos grammar's fields to c, in canonical order.
func (c *ChaosConfig) grammar() spec.Grammar {
	prob := func(key string, p *float64) spec.Field { return spec.Float(key, p, 0, 1, 0) }
	ms := func(p *float64) spec.Field { return spec.Float("", p, 0, maxChaosMS, 0) }
	return spec.Grammar{Pkg: "iqstream", Noun: "chaos", Fields: []spec.Field{
		spec.Pair("latency", ms(&c.LatencyMS), ms(&c.LatencyJitterMS)),
		spec.Pair("stall", prob("", &c.StallProb), ms(&c.StallMS)),
		prob("reset", &c.ResetProb),
		spec.Int("resetevery", &c.ResetEvery, 0, maxChaosResetEvery, 0),
		prob("trunc", &c.TruncProb),
		prob("short", &c.ShortWriteProb),
		prob("drop", &c.DropProb),
		spec.Seed("seed", &c.Seed, &c.HasSeed),
	}}
}

// Enabled reports whether the proxy would inject any fault.
func (c ChaosConfig) Enabled() bool {
	return c.LatencyMS != 0 || c.LatencyJitterMS != 0 ||
		c.StallProb != 0 || c.ResetProb != 0 || c.ResetEvery != 0 ||
		c.TruncProb != 0 || c.ShortWriteProb != 0 || c.DropProb != 0
}

// ChaosProxy is a fault-injecting TCP proxy placed between hub clients and
// the hub itself: the software analogue of a flaky coax run. Every
// accepted connection is paired with an upstream connection; bytes pumped
// in each direction pass through a seeded injector that applies the
// configured latency, stalls, truncations, short writes, silent drops and
// connection resets.
type ChaosProxy struct {
	cfg      ChaosConfig
	upstream string
	seed     uint64
	ln       net.Listener
	logf     func(format string, args ...any)

	mu     sync.Mutex
	links  map[int]*chaosLink
	nextID int
	closed bool
	wg     sync.WaitGroup
}

type chaosLink struct {
	id       int
	down, up net.Conn
	once     sync.Once
}

func (l *chaosLink) closeBoth() {
	l.once.Do(func() {
		l.down.Close()
		l.up.Close()
	})
}

// NewChaosProxy listens on listenAddr and forwards each connection to
// upstream through the configured fault injector. The spec's seed= key,
// when present, overrides the seed argument.
func NewChaosProxy(listenAddr, upstream string, cfg ChaosConfig, seed uint64, logf func(format string, args ...any)) (*ChaosProxy, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.HasSeed {
		seed = cfg.Seed
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	return &ChaosProxy{
		cfg:      cfg,
		upstream: upstream,
		seed:     seed,
		ln:       ln,
		logf:     logf,
		links:    map[int]*chaosLink{},
	}, nil
}

// NewChaosProxyFromSpec parses spec and builds the proxy in one step; the
// entry point behind bhssair's -chaos flag.
func NewChaosProxyFromSpec(listenAddr, upstream, spec string, seed uint64, logf func(format string, args ...any)) (*ChaosProxy, error) {
	cfg, err := ParseChaosSpec(spec)
	if err != nil {
		return nil, err
	}
	return NewChaosProxy(listenAddr, upstream, cfg, seed, logf)
}

// Addr returns the proxy's listen address.
func (p *ChaosProxy) Addr() net.Addr { return p.ln.Addr() }

// Serve accepts and proxies connections until Close.
func (p *ChaosProxy) Serve() error {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		id := p.nextID
		p.nextID++
		p.mu.Unlock()
		p.wg.Add(1)
		go p.handle(conn, id)
	}
}

func (p *ChaosProxy) handle(down net.Conn, id int) {
	defer p.wg.Done()
	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		p.logf("chaos: conn %d upstream dial failed: %v", id, err)
		down.Close()
		return
	}
	link := &chaosLink{id: id, down: down, up: up}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		link.closeBoth()
		return
	}
	p.links[id] = link
	p.mu.Unlock()

	// Per-direction injectors with deterministic sub-seeds: the fault
	// schedule of (seed, connection index, direction) replays exactly.
	var pumps sync.WaitGroup
	pumps.Add(2)
	go p.pump(link, up, down, newInjector(p.cfg, p.seed+uint64(id)*2), &pumps)   // client → hub
	go p.pump(link, down, up, newInjector(p.cfg, p.seed+uint64(id)*2+1), &pumps) // hub → client
	pumps.Wait()
	link.closeBoth()
	p.mu.Lock()
	delete(p.links, id)
	p.mu.Unlock()
}

// pump forwards src → dst through the injector until either side dies or
// the injector decides to reset the link.
func (p *ChaosProxy) pump(link *chaosLink, dst, src net.Conn, inj *injector, pumps *sync.WaitGroup) {
	defer pumps.Done()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if fatal := inj.forward(dst, buf[:n]); fatal {
				p.logf("chaos: conn %d reset after %d bytes", link.id, inj.bytes)
				link.closeBoth()
				return
			}
		}
		if err != nil {
			link.closeBoth()
			return
		}
	}
}

// Close stops the proxy and severs every proxied link.
func (p *ChaosProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	links := make([]*chaosLink, 0, len(p.links))
	for _, l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, l := range links {
		l.closeBoth()
	}
	p.wg.Wait()
	return nil
}

// injector applies one direction's fault schedule. Not safe for concurrent
// use; each pump owns its own.
type injector struct {
	cfg   ChaosConfig
	rng   *prng.Source
	bytes int64 // stream offset consumed from src, delivered or not
	sleep func(time.Duration)
}

func newInjector(cfg ChaosConfig, seed uint64) *injector {
	return &injector{cfg: cfg, rng: prng.New(seed), sleep: time.Sleep}
}

// forward delivers one chunk through the fault schedule; a true return
// means the link must be reset.
func (j *injector) forward(dst net.Conn, chunk []byte) (fatal bool) {
	if j.cfg.LatencyMS > 0 || j.cfg.LatencyJitterMS > 0 {
		ms := j.cfg.LatencyMS + j.cfg.LatencyJitterMS*j.rng.Float64()
		j.sleep(time.Duration(ms * float64(time.Millisecond)))
	}
	if p := j.cfg.StallProb; p > 0 && j.rng.Float64() < p {
		j.sleep(time.Duration(j.cfg.StallMS * float64(time.Millisecond)))
	}
	// The deterministic reset lands at stream offset ResetEvery exactly:
	// the prefix up to the boundary is delivered, the rest dies with the
	// connection. Byte accounting (not chunk counting) keeps the fault
	// position independent of how the kernel coalesces reads.
	if n := int64(j.cfg.ResetEvery); n > 0 {
		if rem := n - j.bytes; rem <= int64(len(chunk)) {
			if rem > 0 {
				_, _ = dst.Write(chunk[:rem])
			}
			j.bytes = n
			return true
		}
	}
	j.bytes += int64(len(chunk))
	if p := j.cfg.ResetProb; p > 0 && j.rng.Float64() < p {
		return true
	}
	if p := j.cfg.TruncProb; p > 0 && j.rng.Float64() < p {
		if keep := j.rng.Intn(len(chunk)); keep > 0 {
			_, _ = dst.Write(chunk[:keep])
		}
		return true
	}
	if p := j.cfg.DropProb; p > 0 && j.rng.Float64() < p {
		return false
	}
	if p := j.cfg.ShortWriteProb; p > 0 && j.rng.Float64() < p {
		pieces := 2 + j.rng.Intn(7)
		step := len(chunk)/pieces + 1
		for off := 0; off < len(chunk); off += step {
			end := off + step
			if end > len(chunk) {
				end = len(chunk)
			}
			if _, err := dst.Write(chunk[off:end]); err != nil {
				return true
			}
		}
		return false
	}
	if _, err := dst.Write(chunk); err != nil {
		return true
	}
	return false
}
