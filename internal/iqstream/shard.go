package iqstream

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"bhss/internal/obs"
)

// shard is one mixer goroutine's worth of links. Links are partitioned
// across shards at admission (least-loaded placement), so mixing throughput
// scales with cores while each link's stream stays single-writer.
type shard struct {
	wake chan struct{}

	mu    sync.Mutex
	links map[uint32]*link
}

func (sh *shard) kick() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// snapshot copies the shard's links in ascending ID order (deterministic
// round-robin fairness) into dst, reusing its backing array.
func (sh *shard) snapshot(dst []*link) []*link {
	dst = dst[:0]
	sh.mu.Lock()
	for _, lk := range sh.links {
		dst = append(dst, lk)
	}
	sh.mu.Unlock()
	slices.SortFunc(dst, func(a, b *link) int { return cmp.Compare(a.id, b.id) })
	return dst
}

// run is the shard mixer loop: whenever kicked, it sweeps its links round-
// robin, mixing one block per link per pass, until a full pass finds no
// work. It exits on hub close.
func (sh *shard) run(h *Hub) {
	sc := h.newMixScratch()
	var snap []*link
	for {
		select {
		case <-h.done:
			return
		case <-sh.wake:
		}
		for worked := true; worked; {
			worked = false
			snap = sh.snapshot(snap)
			for _, lk := range snap {
				if h.mixLink(lk, sc) {
					worked = true
				}
			}
		}
	}
}

// shipBuf is one pooled, refcounted mixed block on its way to receiver
// queues. The creator holds one reference; fan-out adds one per queued
// chunk; the last release returns the buffer to the pool. Pooling plus
// batched flushing is what keeps per-link fan-out cost flat as link count
// grows.
type shipBuf struct {
	s    []complex128
	refs atomic.Int32
}

// outBlock is one queued chunk of a shipBuf (off/n respect MaxBlock).
type outBlock struct {
	buf *shipBuf
	off int
	n   int
}

func (h *Hub) shipOfLen(n int) *shipBuf {
	b := h.ships.Get().(*shipBuf)
	if cap(b.s) < n {
		b.s = make([]complex128, n)
	}
	b.s = b.s[:n]
	b.refs.Store(1)
	return b
}

func (h *Hub) newShip(src []complex128) *shipBuf {
	b := h.shipOfLen(len(src))
	copy(b.s, src)
	return b
}

func (h *Hub) releaseShip(b *shipBuf) {
	if b.refs.Add(-1) == 0 {
		h.ships.Put(b)
	}
}

// mixScratch is one shard mixer's reusable working set.
type mixScratch struct {
	block    []complex128
	impaired []complex128
	ids      []int
	tags     []tagContrib
	noiseAmp float64
	// noise holds one block of the link's noise draws (nil when
	// NoiseVar is 0).
	noise []complex128
}

// tagContrib accumulates one excluded tag's scaled contribution to the
// current block so deliver can hand EXCL receivers the mix minus that tag.
type tagContrib struct {
	tag  string
	buf  []complex128
	used bool     // a tx carrying the tag contributed this block
	ship *shipBuf // built variant (mix − contribution), nil when unused
}

func (h *Hub) newMixScratch() *mixScratch {
	sc := &mixScratch{block: make([]complex128, h.cfg.BlockSize)}
	if h.cfg.NoiseVar > 0 {
		sc.noiseAmp = math.Sqrt(h.cfg.NoiseVar)
		sc.noise = make([]complex128, h.cfg.BlockSize)
	}
	return sc
}

// mixLink mixes and delivers at most one block for one link, reporting
// whether it did any work. This is the fault-isolation boundary: a panic
// anywhere in the link's mix path — a hub-side jam or impair hook, a
// corrupted queue — is recovered here, counted, and costs only that link
// its session; the shard loop and every other link keep running.
func (h *Hub) mixLink(lk *link, sc *mixScratch) (worked bool) {
	defer func() {
		if r := recover(); r != nil {
			h.met.RecoveredPanics.Inc()
			h.cfg.Logf("link %d mix panic recovered: %v", lk.id, r)
			h.evictLink(lk, fmt.Sprintf("mix panic: %v", r))
			worked = false
		}
	}()
	if !h.mixPending(lk, sc) {
		return false
	}
	block := sc.block
	// The hub-side adversary and impair chain run outside all locks: their
	// state is owned by the link's shard goroutine (links never mix
	// concurrently with themselves), and they only touch scratch.
	if lk.jam != nil {
		j := lk.jam(block)
		n := len(j)
		if n > len(block) {
			n = len(block)
		}
		for i := 0; i < n; i++ {
			block[i] += j[i]
		}
	}
	out := block
	if lk.impair.Len() > 0 {
		sc.impaired = lk.impair.ProcessAppend(sc.impaired[:0], block)
		out = sc.impaired
	}
	// Receivers' writer goroutines consume asynchronously, so the mix is
	// copied once into a pooled refcounted buffer; EXCL receivers get a
	// variant with the excluded tag's contribution subtracted. Exclusion
	// models the sensing client's own front end, so the variant bypasses
	// the hub impair chain (link 0 only) while keeping noise and hub-side
	// jamming.
	main := h.newShip(out)
	for ti := range sc.tags {
		tc := &sc.tags[ti]
		if !tc.used {
			continue
		}
		v := h.shipOfLen(len(block))
		for i := range block {
			v.s[i] = block[i] - tc.buf[i]
		}
		tc.ship = v
	}
	h.met.MixedBlocks.Inc()
	h.met.MixedSamples.Add(int64(len(out)))
	h.deliverLink(lk, main, sc.tags)
	h.releaseShip(main)
	for ti := range sc.tags {
		if s := sc.tags[ti].ship; s != nil {
			h.releaseShip(s)
			sc.tags[ti].ship = nil
		}
	}
	return true
}

// mixPending sums the link's pending transmitter queues (plus the link's
// private noise floor) into sc.block, accumulating excluded-tag
// contributions on the side. It reports false when there is nothing to do
// (no pending samples or no receivers).
func (h *Hub) mixPending(lk *link, sc *mixScratch) bool {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.evicted {
		return false
	}
	havePending := false
	for _, q := range lk.txs {
		if q.n > 0 {
			havePending = true
			break
		}
	}
	if !havePending || len(lk.rxs) == 0 {
		// Garbage-collect drained, disconnected transmitter queues.
		for port, q := range lk.txs {
			if !q.active && q.n == 0 {
				delete(lk.txs, port)
			}
		}
		return false
	}
	// Collect the tags receivers want excluded that some transmitter on
	// this link actually carries; each gets a zeroed contribution buffer.
	sc.tags = sc.tags[:0]
	for _, rx := range lk.rxs {
		if rx.excl == "" {
			continue
		}
		carried := false
		for _, q := range lk.txs {
			if q.tag == rx.excl {
				carried = true
				break
			}
		}
		if !carried {
			continue
		}
		dup := false
		for ti := range sc.tags {
			if sc.tags[ti].tag == rx.excl {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		sc.tags = append(sc.tags, tagContrib{tag: rx.excl})
		tc := &sc.tags[len(sc.tags)-1]
		if cap(tc.buf) < h.cfg.BlockSize {
			tc.buf = make([]complex128, h.cfg.BlockSize)
		}
		tc.buf = tc.buf[:h.cfg.BlockSize]
		for i := range tc.buf {
			tc.buf[i] = 0
		}
	}
	block := sc.block
	for i := range block {
		block[i] = 0
	}
	// Mix in ascending port-id order: float addition is order-sensitive,
	// and map iteration order is randomized, so summing in map order would
	// make the mixture nondeterministic across runs of the same scenario.
	ids := sc.ids[:0]
	for port := range lk.txs {
		ids = append(ids, port)
	}
	slices.Sort(ids)
	sc.ids = ids
	for _, port := range ids {
		q := lk.txs[port]
		n := min(q.n, h.cfg.BlockSize)
		g := complex(q.gain, 0)
		var contrib []complex128
		if q.tag != "" {
			for ti := range sc.tags {
				if sc.tags[ti].tag == q.tag {
					contrib = sc.tags[ti].buf
					sc.tags[ti].used = sc.tags[ti].used || n > 0
					break
				}
			}
		}
		a, b := q.front(n)
		addScaled(block, contrib, a, 0, g)
		addScaled(block, contrib, b, len(a), g)
		q.pop(n)
		if n > 0 {
			select {
			case q.space <- struct{}{}:
			default:
			}
		}
	}
	if sc.noiseAmp > 0 {
		// One bulk draw yields exactly the per-sample ComplexNorm
		// sequence: the link's Source is never drawn any other way.
		lk.noise.ComplexNormInto(sc.noise)
		a := complex(sc.noiseAmp, 0)
		for i := range block {
			block[i] += sc.noise[i] * a
		}
	}
	return true
}

// addScaled adds seg·g into block from off on, and into contrib as well
// when it is non-nil.
func addScaled(block, contrib, seg []complex128, off int, g complex128) {
	block = block[off : off+len(seg)]
	if contrib == nil {
		for i, s := range seg {
			block[i] += s * g
		}
		return
	}
	contrib = contrib[off : off+len(seg)]
	for i, s := range seg {
		v := s * g
		block[i] += v
		contrib[i] += v
	}
}

// deliverLink fans a mixed block out to the link's receiver queues without
// ever blocking: a full queue costs that receiver the block (counted), and
// a receiver that drops more blocks than it accepts across a whole
// StallBudget window costs it the connection. The majority test — rather
// than "queue full for the whole budget" — is deliberate: a hopelessly
// slow socket still dribbles a block out every few milliseconds, freeing a
// queue slot and making momentary full/empty states useless as a health
// signal; the accept/drop ratio over the window is robust to that.
func (h *Hub) deliverLink(lk *link, main *shipBuf, tags []tagContrib) {
	now := obs.Now()
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.evicted {
		return
	}
	for _, rx := range lk.rxs {
		buf := main
		if rx.excl != "" {
			for ti := range tags {
				if tags[ti].tag == rx.excl && tags[ti].ship != nil {
					buf = tags[ti].ship
					break
				}
			}
		}
		var ok, dropped int64
		// A clock-skew impair stage can emit slightly more than BlockSize
		// samples; chunk to respect the wire format's MaxBlock.
		for off := 0; off < len(buf.s) && dropped == 0; off += MaxBlock {
			end := off + MaxBlock
			if end > len(buf.s) {
				end = len(buf.s)
			}
			buf.refs.Add(1)
			select {
			case rx.out <- outBlock{buf: buf, off: off, n: end - off}:
				ok++
			default:
				buf.refs.Add(-1)
				dropped++
			}
		}
		if dropped > 0 {
			h.met.RxQueueDrops.Add(dropped)
		}
		if rx.epochStart == 0 {
			if dropped == 0 {
				continue // healthy and idle: no window to account
			}
			rx.epochStart = now
		}
		rx.epochOK += ok
		rx.epochDrops += dropped
		if now-rx.epochStart < int64(h.cfg.StallBudget) {
			continue
		}
		if rx.epochDrops > rx.epochOK {
			h.met.RxEvictions.Inc()
			h.removeRxLocked(lk, rx, fmt.Sprintf(
				"evicted: dropped %d of %d blocks over stall budget %v",
				rx.epochDrops, rx.epochDrops+rx.epochOK, h.cfg.StallBudget))
			continue
		}
		rx.epochStart, rx.epochOK, rx.epochDrops = 0, 0, 0
	}
}
