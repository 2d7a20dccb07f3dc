package iqstream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bhss/internal/impair"
	"bhss/internal/obs"
)

// Transport-resilience defaults (DESIGN.md §12, §17). Zero config fields
// take these values; negative ones are rejected.
const (
	// DefaultMaxPending bounds each transmitter's pending queue at 1 Mi
	// samples (16 MiB of complex128).
	DefaultMaxPending = 1 << 20
	// DefaultRxBuffer is the per-receiver outbound queue depth in blocks.
	DefaultRxBuffer = 64
	// DefaultOverflowDeadline bounds a backpressure wait at the MaxPending
	// bound.
	DefaultOverflowDeadline = 10 * time.Second
	// DefaultStallBudget is the accounting window for slow-consumer
	// eviction: a receiver that drops more mixed blocks than it accepts
	// across one whole window is disconnected.
	DefaultStallBudget = 5 * time.Second
	// DefaultHandshakeTimeout bounds the handshake exchange in both
	// directions, so a slowloris peer (or one that never reads the reply)
	// cannot pin an accept goroutine.
	DefaultHandshakeTimeout = 5 * time.Second
	// DefaultMaxLinks is the per-hub admission cap on concurrent links.
	DefaultMaxLinks = 4096
	// writeDeadline bounds each socket write to a receiver so a wedged peer
	// cannot pin its writer goroutine forever.
	writeDeadline = 10 * time.Second
	// maxShards caps the mixer-shard count, min(GOMAXPROCS, maxShards).
	maxShards = 8
)

// HubConfig parameterizes the virtual RF medium.
type HubConfig struct {
	// BlockSize is the mixing granularity in samples.
	BlockSize int
	// NoiseVar is the AWGN floor added to every link's mixed signal.
	NoiseVar float64
	// Seed drives the noise generators: link 0 consumes prng.New(Seed)
	// exactly (the legacy stream), other links derive private seeds from
	// (Seed, link ID).
	Seed uint64
	// Impair, when non-nil, is the receiver front-end impairment chain
	// (internal/impair) applied to each of link 0's mixed blocks after the
	// noise floor, so every legacy receiver sees the same distorted stream
	// — the hub plays the shared front end of the testbed. Only link 0's
	// mixer goroutine touches it.
	Impair *impair.Chain
	// Jam, when non-nil, is a hub-side adversary on link 0: the mixer
	// hands it each clean mixed block (after the AWGN floor, before the
	// Impair chain) and adds the interference it returns, truncated to the
	// block. Unlike a bhssjam client, a hub-side adversary overhears the
	// pre-jamming mix directly. Only link 0's mixer calls it; stateful
	// jammers need no locking.
	Jam func(heard []complex128) []complex128
	// MaxPending bounds each transmitter's pending queue in samples (a
	// soft bound: it may be exceeded by at most one wire block). At the
	// bound the hub stops reading the transmitter's socket until the mixer
	// drains the queue. Zero means DefaultMaxPending.
	MaxPending int
	// OverflowDeadline bounds a backpressure wait at the MaxPending bound
	// before the transmitter is disconnected. Zero means
	// DefaultOverflowDeadline.
	OverflowDeadline time.Duration
	// RxBuffer is the per-receiver outbound queue depth in mixed blocks.
	// Zero means DefaultRxBuffer.
	RxBuffer int
	// StallBudget is the slow-consumer accounting window: a receiver
	// that drops more mixed blocks than it accepts across one whole
	// window (i.e. the consumer loses the majority of the stream) is
	// evicted. Zero means DefaultStallBudget.
	StallBudget time.Duration
	// HandshakeTimeout bounds both the handshake-line read and the ERR
	// reply write. Zero means DefaultHandshakeTimeout.
	HandshakeTimeout time.Duration
	// MaxLinks caps concurrent links hub-wide; past it handshakes are
	// refused with "ERR hub full". Zero means DefaultMaxLinks.
	MaxLinks int
	// Metrics, when non-nil, receives hub transport counters (typically
	// &pipeline.Hub of an obs.Pipeline).
	Metrics *obs.HubMetrics
	// Logf receives hub events; nil silences them.
	Logf func(format string, args ...any)
}

// Hub is the T-connector of the simulated testbed, generalized to many
// concurrent links: it accepts transmitter and receiver connections over
// TCP, and per link sums that link's transmitter streams block-by-block
// with per-port gain, adds AWGN and broadcasts the mixture to that link's
// receivers. Transmitters that have no data pending contribute silence for
// that block, so receivers observe a continuous stream.
//
// Resilience properties (DESIGN.md §12, §17): per-transmitter pending
// queues are bounded, with backpressure and a deadline at the bound; every
// receiver is served by its own buffered writer goroutine, so one slow or
// wedged receiver never stalls the mixer or its peers — it is evicted once
// it has dropped the majority of a whole StallBudget window's blocks.
// Links are partitioned across per-shard mixer goroutines and are the
// fault-isolation unit: a panicking hook or byte-garbage peer tears down
// only its own link, and admission past MaxLinks is refused.
type Hub struct {
	cfg HubConfig
	ln  net.Listener
	met *obs.HubMetrics

	shards    []*shard
	ships     sync.Pool
	highWater atomic.Int64

	mu       sync.Mutex
	links    map[uint32]*link
	nextPort int
	closed   bool
	draining bool

	serveOnce sync.Once
	closeOnce sync.Once
	done      chan struct{}
}

// Errors surfaced in hub logs and handshake replies.
var (
	errHubClosed        = errors.New("iqstream: hub closed")
	errHubFull          = errors.New("iqstream: hub full")
	errLinkEvicted      = errors.New("iqstream: link evicted")
	errOverflowDeadline = errors.New("iqstream: tx overflow deadline exceeded")
)

// orDefault applies the config convention to one count or duration field:
// zero takes def, negative is an error.
func orDefault[T int | time.Duration](name string, v *T, def T) error {
	if *v < 0 {
		return fmt.Errorf("iqstream: negative %s", name)
	}
	if *v == 0 {
		*v = def
	}
	return nil
}

// NewHub starts a hub listening on addr ("127.0.0.1:0" for an ephemeral
// port). Call Serve to run the mixer shards.
func NewHub(addr string, cfg HubConfig) (*Hub, error) {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 4096
	}
	if cfg.BlockSize > MaxBlock {
		return nil, fmt.Errorf("iqstream: block size %d exceeds MaxBlock", cfg.BlockSize)
	}
	if cfg.NoiseVar < 0 {
		return nil, fmt.Errorf("iqstream: negative noise variance")
	}
	if err := errors.Join(
		orDefault("MaxPending", &cfg.MaxPending, DefaultMaxPending),
		orDefault("OverflowDeadline", &cfg.OverflowDeadline, DefaultOverflowDeadline),
		orDefault("RxBuffer", &cfg.RxBuffer, DefaultRxBuffer),
		orDefault("StallBudget", &cfg.StallBudget, DefaultStallBudget),
		orDefault("HandshakeTimeout", &cfg.HandshakeTimeout, DefaultHandshakeTimeout),
		orDefault("MaxLinks", &cfg.MaxLinks, DefaultMaxLinks),
	); err != nil {
		return nil, err
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	met := cfg.Metrics
	if met == nil {
		met = new(obs.HubMetrics)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := &Hub{
		cfg:   cfg,
		ln:    ln,
		met:   met,
		links: map[uint32]*link{},
		done:  make(chan struct{}),
	}
	h.ships.New = func() any { return new(shipBuf) }
	h.shards = make([]*shard, min(runtime.GOMAXPROCS(0), maxShards))
	for i := range h.shards {
		h.shards[i] = &shard{wake: make(chan struct{}, 1), links: map[uint32]*link{}}
	}
	return h, nil
}

// Addr returns the hub's listen address.
func (h *Hub) Addr() net.Addr { return h.ln.Addr() }

// Close stops the hub immediately and disconnects all clients, transmitters
// included, so no serve goroutine is left blocked on a peer that never
// hangs up. Pending samples are discarded; use Shutdown to drain first.
func (h *Hub) Close() error {
	h.closeOnce.Do(func() {
		h.mu.Lock()
		h.closed = true
		h.mu.Unlock()
		for _, lk := range h.linksSnapshot() {
			h.evictLink(lk, "hub closed")
		}
		h.ln.Close()
		close(h.done)
	})
	return nil
}

// Shutdown gracefully stops the hub: it stops accepting connections,
// disconnects the transmitters, keeps mixing until every pending sample has
// been mixed and handed to the receivers' writers (or until ctx expires),
// then closes. Pending samples are undrainable without receivers; links
// with no receivers are skipped.
func (h *Hub) Shutdown(ctx context.Context) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.draining = true
	h.mu.Unlock()
	h.ln.Close()
	for _, lk := range h.linksSnapshot() {
		lk.mu.Lock()
		conns := make([]net.Conn, 0, len(lk.txConns))
		for _, c := range lk.txConns {
			conns = append(conns, c)
		}
		lk.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for !h.drained() {
		h.kickAll()
		select {
		case <-ctx.Done():
			h.Close()
			return ctx.Err()
		case <-tick.C:
		}
	}
	return h.Close()
}

// drained reports whether every pending sample has been mixed and flushed
// out of the receivers' queues (vacuously true for links without
// receivers).
func (h *Hub) drained() bool {
	for _, lk := range h.linksSnapshot() {
		lk.mu.Lock()
		ok := true
		if len(lk.rxs) > 0 {
			if lk.pendingLocked() > 0 {
				ok = false
			}
			for _, rx := range lk.rxs {
				if len(rx.out) > 0 {
					ok = false
					break
				}
			}
		}
		lk.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// pendingSamples totals undelivered pending samples across every link
// (drain diagnostics and tests).
func (h *Hub) pendingSamples() int {
	n := 0
	for _, lk := range h.linksSnapshot() {
		lk.mu.Lock()
		n += lk.pendingLocked()
		lk.mu.Unlock()
	}
	return n
}

// kickAll wakes every mixer shard.
func (h *Hub) kickAll() {
	for _, sh := range h.shards {
		sh.kick()
	}
}

// kickLink wakes the shard owning lk.
func (h *Hub) kickLink(lk *link) { h.shards[lk.shard].kick() }

// noteHighWater records a pending-queue depth into the monotonic
// high-water gauge.
func (h *Hub) noteHighWater(n int) {
	for {
		cur := h.highWater.Load()
		if int64(n) <= cur {
			return
		}
		if h.highWater.CompareAndSwap(cur, int64(n)) {
			h.met.QueueHighWater.Store(float64(n))
			return
		}
	}
}

// Serve accepts clients and runs the mixer shards until Close. It returns
// after the listener shuts down.
func (h *Hub) Serve() error {
	h.serveOnce.Do(func() {
		for _, sh := range h.shards {
			go sh.run(h)
		}
	})
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			h.mu.Lock()
			stopping := h.closed || h.draining
			h.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		go h.handle(conn)
	}
}

// handle performs the one-line handshake (see handshake.go for the
// grammar) and serves the client's role. The handshake read is bounded in
// both size (one bufio buffer; an oversized line is hostile, not slow) and
// time (HandshakeTimeout), so a slowloris peer cannot pin this goroutine.
// A panic anywhere in the handler is contained to this connection.
func (h *Hub) handle(conn net.Conn) {
	defer func() {
		if r := recover(); r != nil {
			h.met.RecoveredPanics.Inc()
			h.cfg.Logf("connection handler panic recovered: %v", r)
			conn.Close()
		}
	}()
	//bhss:allow(detrand) transport deadline: wall clock bounds the handshake read and never feeds the simulation
	_ = conn.SetReadDeadline(time.Now().Add(h.cfg.HandshakeTimeout))
	br := bufio.NewReader(conn)
	raw, err := br.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, bufio.ErrBufferFull) {
			h.reject(conn, "ERR bad handshake")
		} else {
			conn.Close()
		}
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	hs, herr := parseHandshake(string(raw))
	if herr != nil {
		h.reject(conn, herr.reply)
		return
	}
	switch hs.role {
	case "tx", "jam":
		lk, port, q, err := h.attachTx(conn, hs)
		if err != nil {
			h.rejectAttach(conn, err)
			return
		}
		// The OK reply follows registration so admission failures surface
		// as ERR, never as an accepted-then-dropped connection.
		if _, err := fmt.Fprintf(conn, "OK\n"); err != nil {
			h.detachTx(lk, port)
			conn.Close()
			return
		}
		h.runTx(conn, br, lk, port, q, hs)
	case "rx":
		lk, rx, err := h.attachRx(conn, hs)
		if err != nil {
			h.rejectAttach(conn, err)
			return
		}
		if _, err := fmt.Fprintf(conn, "OK\n"); err != nil {
			h.detachRx(lk, rx, "handshake reply failed")
			return
		}
		// The writer starts only after the OK reply is on the wire, so the
		// first mixed block can never precede it.
		go h.rxWriter(lk, rx)
		h.runRx(conn, lk, rx)
	}
}

// reject answers a failed handshake and hangs up. The reply write is
// deadline-bounded: a peer that never reads cannot pin this goroutine.
func (h *Hub) reject(conn net.Conn, reply string) {
	h.met.HandshakeRejects.Inc()
	//bhss:allow(detrand) transport deadline: wall clock bounds the reject write and never feeds the simulation
	_ = conn.SetWriteDeadline(time.Now().Add(h.cfg.HandshakeTimeout))
	fmt.Fprintf(conn, "%s\n", reply)
	conn.Close()
}

// rejectAttach maps registration errors onto handshake replies.
func (h *Hub) rejectAttach(conn net.Conn, err error) {
	switch {
	case errors.Is(err, errHubFull):
		h.met.LinkRejectsFull.Inc()
		h.reject(conn, "ERR hub full")
	default:
		h.reject(conn, "ERR hub closed")
	}
}

// attachTx admits the handshake's link and registers a transmitter on it.
func (h *Hub) attachTx(conn net.Conn, hs handshake) (*link, int, *txQueue, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || h.draining {
		return nil, 0, nil, errHubClosed
	}
	lk, err := h.admitLocked(hs.link)
	if err != nil {
		return nil, 0, nil, err
	}
	port := h.nextPort
	h.nextPort++
	q := &txQueue{gain: dbToAmp(hs.gainDB), tag: hs.tag, active: true, space: make(chan struct{}, 1)}
	lk.mu.Lock()
	lk.txs[port] = q
	lk.txConns[port] = conn
	lk.mu.Unlock()
	return lk, port, q, nil
}

// attachRx admits the handshake's link and registers a receiver on it.
func (h *Hub) attachRx(conn net.Conn, hs handshake) (*link, *rxConn, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || h.draining {
		return nil, nil, errHubClosed
	}
	lk, err := h.admitLocked(hs.link)
	if err != nil {
		return nil, nil, err
	}
	port := h.nextPort
	h.nextPort++
	rx := &rxConn{
		id:   port,
		c:    conn,
		w:    NewWriter(conn),
		excl: hs.excl,
		out:  make(chan outBlock, h.cfg.RxBuffer),
	}
	lk.mu.Lock()
	lk.rxs[port] = rx
	lk.mu.Unlock()
	return lk, rx, nil
}

// runTx reads the transmitter's sample stream into its pending queue until
// the peer disconnects, misbehaves (garbage framing) or overruns its
// bounds; any of those tears down only this session.
func (h *Hub) runTx(conn net.Conn, br *bufio.Reader, lk *link, port int, q *txQueue, hs handshake) {
	h.met.TxAccepted.Inc()
	h.cfg.Logf("link %d %s %d connected (gain %.1f dB)", lk.id, hs.role, port, hs.gainDB)
	r := NewReader(br)
	reason := "stream ended"
	for {
		block, err := r.ReadBlock()
		if err != nil {
			reason = err.Error()
			break
		}
		if err := h.enqueueTx(lk, port, q, block); err != nil {
			reason = err.Error()
			break
		}
	}
	h.detachTx(lk, port)
	conn.Close()
	h.kickLink(lk)
	h.cfg.Logf("link %d %s %d disconnected (%s)", lk.id, hs.role, port, reason)
}

// detachTx unregisters a departing transmitter. With a receiver attached
// its queued samples keep draining (a reconnecting peer's leftover stream
// collides with its retry, as on the air); with none they never could, so
// the queue goes with the connection. A link whose last peer leaves is
// evicted (link 0 excepted).
func (h *Hub) detachTx(lk *link, port int) {
	lk.mu.Lock()
	if len(lk.rxs) == 0 {
		delete(lk.txs, port)
	} else if q, ok := lk.txs[port]; ok {
		q.active = false
	}
	delete(lk.txConns, port)
	lk.mu.Unlock()
	h.maybeEvictEmpty(lk)
}

// runRx parks on the receiver's connection until the peer hangs up; the
// writer goroutine does all the sending.
func (h *Hub) runRx(conn net.Conn, lk *link, rx *rxConn) {
	h.met.RxAccepted.Inc()
	h.cfg.Logf("link %d rx %d connected", lk.id, rx.id)
	buf := make([]byte, 1)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	h.detachRx(lk, rx, "peer closed")
}

// detachRx unregisters a receiver and evicts its link if that was the last
// peer (link 0 excepted).
func (h *Hub) detachRx(lk *link, rx *rxConn, reason string) {
	lk.mu.Lock()
	h.removeRxLocked(lk, rx, reason)
	lk.mu.Unlock()
	h.maybeEvictEmpty(lk)
}

// enqueueTx copies one decoded block into the transmitter's pending queue.
// At the MaxPending bound it applies backpressure: it stops reading the
// socket until the mixer drains the queue, and gives up with
// errOverflowDeadline once the wait exceeds OverflowDeadline.
func (h *Hub) enqueueTx(lk *link, port int, q *txQueue, block []complex128) error {
	if len(block) == 0 {
		return nil
	}
	var expired <-chan time.Time
	for {
		select {
		case <-h.done:
			return errHubClosed
		default:
		}
		lk.mu.Lock()
		if lk.evicted {
			lk.mu.Unlock()
			return errLinkEvicted
		}
		// An oversized single block is admitted into an empty queue so it
		// cannot deadlock the bound.
		if q.n == 0 || q.n+len(block) <= h.cfg.MaxPending {
			q.push(block, h.cfg.MaxPending)
			n := q.n
			lk.mu.Unlock()
			h.noteHighWater(n)
			h.kickLink(lk)
			return nil
		}
		lk.mu.Unlock()
		h.met.TxOverflowWaits.Inc()
		if expired == nil {
			timer := time.NewTimer(h.cfg.OverflowDeadline)
			defer timer.Stop()
			expired = timer.C
		}
		select {
		case <-q.space:
		case <-expired:
			h.met.TxOverflowKills.Inc()
			h.cfg.Logf("link %d tx %d overflow: blocked past %v deadline, closing", lk.id, port, h.cfg.OverflowDeadline)
			return errOverflowDeadline
		case <-h.done:
			return errHubClosed
		}
	}
}

// rxWriter drains one receiver's outbound queue onto its socket. It is the
// only goroutine that writes to the connection, so the mixer never blocks
// on a peer's TCP window. Fan-out is batched: after each block it greedily
// drains whatever else is already queued before paying the flush syscall.
func (h *Hub) rxWriter(lk *link, rx *rxConn) {
	write := func(ob outBlock) error {
		err := rx.w.writeBlockBuffered(ob.buf.s[ob.off : ob.off+ob.n])
		h.releaseShip(ob.buf)
		return err
	}
	bail := func(err error) {
		lk.mu.Lock()
		h.removeRxLocked(lk, rx, "write failed: "+err.Error())
		lk.mu.Unlock()
		// Drain until the mixer's close so its non-blocking sends see
		// queue space rather than a phantom stall.
		for ob := range rx.out {
			h.releaseShip(ob.buf)
		}
	}
	for ob := range rx.out {
		//bhss:allow(detrand) transport deadline: wall clock bounds socket writes and never feeds the simulation
		_ = rx.c.SetWriteDeadline(time.Now().Add(writeDeadline))
		if err := write(ob); err != nil {
			bail(err)
			return
		}
		batching := true
		for batching {
			select {
			case ob2, open := <-rx.out:
				if !open {
					_ = rx.w.Flush()
					return
				}
				if err := write(ob2); err != nil {
					bail(err)
					return
				}
			default:
				batching = false
			}
		}
		if err := rx.w.Flush(); err != nil {
			bail(err)
			return
		}
	}
	_ = rx.w.Flush()
}

func dbToAmp(db float64) float64 {
	return math.Pow(10, db/20)
}

// Client connects to a hub. Role-specific constructors below.
type Client struct {
	conn net.Conn
	w    *Writer
	r    *Reader
}

// dial performs the handshake with the hub.
func dial(addr, handshake string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(conn, "%s\n", handshake); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, err
	}
	if strings.TrimSpace(resp) != "OK" {
		conn.Close()
		return nil, fmt.Errorf("iqstream: hub rejected handshake: %s", strings.TrimSpace(resp))
	}
	return &Client{conn: conn, w: NewWriter(conn), r: NewReader(br)}, nil
}

// DialTxLink connects as a transmitter (or jammer, per opts) on one link.
func DialTxLink(addr string, gainDB float64, o LinkOpts) (*Client, error) {
	return dial(addr, txHandshakeLine(gainDB, o))
}

// DialRxLink connects as a receiver on one link, optionally excluding a
// tagged contribution from the received mix.
func DialRxLink(addr string, o LinkOpts) (*Client, error) {
	return dial(addr, rxHandshakeLine(o))
}

// Send writes one block of samples (transmitter clients).
func (c *Client) Send(samples []complex128) error {
	return c.w.WriteBlock(samples)
}

// Recv reads the next mixed block (receiver clients) into storage the
// Client keeps: the block is valid only until the next Recv, so a caller
// that keeps samples past it copies them.
func (c *Client) Recv() ([]complex128, error) {
	return c.r.ReadBlock()
}

// SetRecvDeadline bounds the next Recv; a zero time clears the bound.
// After a deadline error the stream framing may be mid-block — reconnect
// rather than resuming.
func (c *Client) SetRecvDeadline(t time.Time) error {
	return c.conn.SetReadDeadline(t)
}

// Close disconnects from the hub.
func (c *Client) Close() error { return c.conn.Close() }
