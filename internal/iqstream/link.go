package iqstream

import (
	"net"
	"sync"

	"bhss/internal/impair"
	"bhss/internal/prng"
)

// link is one RF session: an independent medium mixing its own transmitters
// with its own noise process for its own receivers. Lock order is always
// Hub.mu → shard.mu → link.mu; the mix path takes only link.mu, so links
// mix concurrently across shards and a fault in one link's peers or hooks
// never touches its neighbors.
type link struct {
	id uint32
	// shard is the index of the mixer shard that owns this link, fixed at
	// admission.
	shard int

	mu sync.Mutex
	// evicted is set once, when the link leaves the registry — its last
	// peer left, a mix hook panicked, or the hub closed. An evicted link
	// never mixes again, and a reused link ID is a fresh link.
	evicted bool
	txs     map[int]*txQueue
	txConns map[int]net.Conn
	rxs     map[int]*rxConn
	// noise is this link's private AWGN source. Link 0 uses prng.New(Seed)
	// exactly — the legacy hub's stream, bit-for-bit — and other links
	// derive independent seeds from (Seed, id), so noise is deterministic
	// per link regardless of join order or shard placement.
	noise *prng.Source
	// impair and jam are the hub-level hooks; only link 0 carries them
	// (they model the legacy shared front end and hub-side adversary).
	impair *impair.Chain
	jam    func(heard []complex128) []complex128
}

// pendingLocked totals undelivered pending samples; callers hold lk.mu.
func (lk *link) pendingLocked() int {
	n := 0
	for _, q := range lk.txs {
		//bhss:allow(detrand) integer addition commutes: the total is identical in any map order
		n += len(q.pending)
	}
	return n
}

// emptyLocked reports whether no peer holds the link open; callers hold
// lk.mu.
func (lk *link) emptyLocked() bool {
	return len(lk.txConns) == 0 && len(lk.rxs) == 0
}

type txQueue struct {
	gain    float64
	tag     string // contribution tag for EXCL filtering ("" = untagged)
	pending []complex128
	active  bool
	// space (capacity 1) is signalled by the mixer whenever it drains
	// samples from this queue; blocked enqueues wait on it.
	space chan struct{}
}

type rxConn struct {
	id   int
	c    net.Conn
	w    *Writer
	excl string // subtract same-link contributions carrying this tag
	// out carries mixed blocks to this receiver's writer goroutine. The
	// mixer's sends are non-blocking; closed exactly once via gone.
	out  chan outBlock
	gone bool
	// Stall accounting (mixer-owned, under link.mu). A receiver whose
	// socket drains slower than the mix rate still frees a queue slot
	// every time its writer pops a block, so "queue continuously full" is
	// never observable; instead each StallBudget-long window tallies
	// accepted vs dropped blocks and the receiver is evicted when drops
	// win the majority.
	epochStart int64 // obs.Now() when the current window opened (0 = idle)
	epochOK    int64 // blocks accepted this window
	epochDrops int64 // blocks dropped this window
}

// linkNoiseSeed derives a link's private noise seed. Link 0 gets the
// configured seed untouched (legacy bit-identity); other links get a
// splitmix64-style scramble of (seed, id), a pure function so churn order
// and shard placement never change a link's noise stream.
func linkNoiseSeed(seed uint64, id uint32) uint64 {
	if id == 0 {
		return seed
	}
	z := seed + uint64(id)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// admitLocked finds or creates the link for an accepted handshake, placing
// new links on the least-loaded shard. Callers hold h.mu. It fails with
// errHubFull when MaxLinks links are already admitted.
func (h *Hub) admitLocked(id uint32) (*link, error) {
	if lk, ok := h.links[id]; ok {
		return lk, nil
	}
	if len(h.links) >= h.cfg.MaxLinks {
		return nil, errHubFull
	}
	si := h.leastLoadedShardLocked()
	lk := &link{
		id:      id,
		shard:   si,
		txs:     map[int]*txQueue{},
		txConns: map[int]net.Conn{},
		rxs:     map[int]*rxConn{},
		noise:   prng.New(linkNoiseSeed(h.cfg.Seed, id)),
	}
	if id == 0 {
		lk.impair = h.cfg.Impair
		lk.jam = h.cfg.Jam
	}
	h.links[id] = lk
	sh := h.shards[si]
	sh.mu.Lock()
	sh.links[id] = lk
	sh.mu.Unlock()
	h.met.LinksAdmitted.Inc()
	h.met.ActiveLinks.Store(float64(len(h.links)))
	h.cfg.Logf("link %d admitted (shard %d, %d links)", id, si, len(h.links))
	return lk, nil
}

// leastLoadedShardLocked picks the shard with the fewest links (the lowest
// index on a tie). Callers hold h.mu.
func (h *Hub) leastLoadedShardLocked() int {
	best, bestLoad := 0, -1
	for i, sh := range h.shards {
		sh.mu.Lock()
		n := len(sh.links)
		sh.mu.Unlock()
		if bestLoad < 0 || n < bestLoad {
			best, bestLoad = i, n
		}
	}
	return best
}

// evictLink removes a link from the registry exactly once: subsequent calls
// for the same *link value are no-ops, and a fresh link readmitted under the
// same ID is untouched (the registry entry is compared by identity, not ID).
// All of the link's peer connections are closed, tearing down their serve
// goroutines; pending samples are discarded.
func (h *Hub) evictLink(lk *link, reason string) { h.evict(lk, reason, false) }

// maybeEvictEmpty evicts a link whose last peer has left. Link 0 is exempt:
// it is the legacy medium and keeps its noise/impair/jam state for the
// hub's lifetime so single-link runs stay bit-identical across reconnects.
func (h *Hub) maybeEvictEmpty(lk *link) {
	if lk.id != 0 {
		h.evict(lk, "all peers left", true)
	}
}

// evict is evictLink, and with onlyIfEmpty it first checks that no peer
// holds the link. The check and the registry removal share one critical
// section, h.mu then lk.mu (attachTx's order), so a peer that attaches
// after the last one left keeps the link and its OK.
func (h *Hub) evict(lk *link, reason string, onlyIfEmpty bool) {
	h.mu.Lock()
	lk.mu.Lock()
	keep := h.links[lk.id] != lk || onlyIfEmpty && !lk.emptyLocked()
	lk.mu.Unlock()
	if keep {
		h.mu.Unlock()
		return
	}
	delete(h.links, lk.id)
	h.met.LinksEvicted.Inc()
	h.met.ActiveLinks.Store(float64(len(h.links)))
	sh := h.shards[lk.shard]
	sh.mu.Lock()
	if sh.links[lk.id] == lk {
		delete(sh.links, lk.id)
	}
	sh.mu.Unlock()
	h.mu.Unlock()

	lk.mu.Lock()
	lk.evicted = true
	for _, c := range lk.txConns {
		c.Close()
	}
	for _, rx := range lk.rxs {
		h.removeRxLocked(lk, rx, "link evicted: "+reason)
	}
	lk.mu.Unlock()
	h.cfg.Logf("link %d evicted (%s)", lk.id, reason)
}

// linksSnapshot copies the current registry for lock-free iteration.
func (h *Hub) linksSnapshot() []*link {
	h.mu.Lock()
	defer h.mu.Unlock()
	links := make([]*link, 0, len(h.links))
	for _, lk := range h.links {
		links = append(links, lk)
	}
	return links
}

// removeRxLocked unregisters a receiver exactly once: out of the link's map,
// out channel closed (stopping the writer), socket closed. Callers hold
// lk.mu.
func (h *Hub) removeRxLocked(lk *link, rx *rxConn, reason string) {
	if rx.gone {
		return
	}
	rx.gone = true
	delete(lk.rxs, rx.id)
	//bhss:allow(chandiscipline) deliver is the only sender and runs under lk.mu; the rx is deleted from the map first under the same lock, so no send can follow this close
	close(rx.out)
	rx.c.Close()
	h.cfg.Logf("link %d rx %d disconnected (%s)", lk.id, rx.id, reason)
}
