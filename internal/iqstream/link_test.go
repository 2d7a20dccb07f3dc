package iqstream

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bhss/internal/obs"
)

// TestHubMultiLinkIsolation is the no-cross-link-bleed property: three links
// carrying distinct constant values, mixed concurrently, deliver exactly
// their own transmitter's samples to their own receivers (NoiseVar 0 makes
// any bleed an exact-value failure, not a statistical one).
func TestHubMultiLinkIsolation(t *testing.T) {
	checkGoroutines(t)
	met := &obs.HubMetrics{}
	h := startHub(t, HubConfig{BlockSize: 128, Metrics: met})
	addr := h.Addr().String()

	type linkEnd struct {
		tx, rx *Client
		val    complex128
	}
	ends := []*linkEnd{
		{val: complex(1, 0)},
		{val: complex(0, 2)},
		{val: complex(-3, 5)},
	}
	for i, e := range ends {
		o := LinkOpts{Link: uint32(i * 11)} // links 0, 11, 22
		rx, err := DialRxLink(addr, o)
		if err != nil {
			t.Fatal(err)
		}
		defer rx.Close()
		tx, err := DialTxLink(addr, 0, o)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Close()
		e.tx, e.rx = tx, rx
	}

	const blocks, blockLen = 8, 512
	var wg sync.WaitGroup
	for _, e := range ends {
		wg.Add(1)
		go func(e *linkEnd) {
			defer wg.Done()
			block := make([]complex128, blockLen)
			for i := range block {
				block[i] = e.val
			}
			for i := 0; i < blocks; i++ {
				if err := e.tx.Send(block); err != nil {
					return
				}
			}
		}(e)
	}
	for li, e := range ends {
		got := recvN(t, e.rx, blocks*blockLen)
		for i, v := range got {
			if v != e.val {
				t.Fatalf("link %d sample %d = %v, want %v: cross-link bleed", li, i, v, e.val)
			}
		}
	}
	wg.Wait()
	if got := met.LinksAdmitted.Load(); got != 3 {
		t.Fatalf("LinksAdmitted = %d, want 3", got)
	}
}

// TestHubLinkAdmissionControl pins the hub-wide cap: links past MaxLinks are
// refused with "ERR hub full", counted, and a freed slot is reusable.
func TestHubLinkAdmissionControl(t *testing.T) {
	checkGoroutines(t)
	met := &obs.HubMetrics{}
	h := startHub(t, HubConfig{BlockSize: 64, MaxLinks: 2, Metrics: met})
	addr := h.Addr().String()

	a, err := DialRxLink(addr, LinkOpts{Link: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := DialRxLink(addr, LinkOpts{Link: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if _, err := DialRxLink(addr, LinkOpts{Link: 3}); err == nil ||
		!strings.Contains(err.Error(), "ERR hub full") {
		t.Fatalf("third link: err = %v, want ERR hub full", err)
	}
	if got := met.LinkRejectsFull.Load(); got != 1 {
		t.Fatalf("LinkRejectsFull = %d, want 1", got)
	}
	// A peer joining an already-admitted link is not a new link.
	a2, err := DialTxLink(addr, 0, LinkOpts{Link: 1})
	if err != nil {
		t.Fatalf("second peer on admitted link refused: %v", err)
	}
	defer a2.Close()

	// Leaving frees the slot: link 2's only peer hangs up, the empty link is
	// evicted and a new link fits again.
	b.Close()
	waitFor(t, 5*time.Second, "link eviction", func() bool {
		return met.LinksEvicted.Load() == 1
	})
	c, err := DialRxLink(addr, LinkOpts{Link: 3})
	if err != nil {
		t.Fatalf("link slot not reusable after eviction: %v", err)
	}
	defer c.Close()
}

// TestHubLinkEvictionExactlyOnce is the eviction property test: concurrent
// evictions of the same link count once, and a fresh link readmitted under
// the same ID is untouched by stale evictions of its predecessor.
func TestHubLinkEvictionExactlyOnce(t *testing.T) {
	checkGoroutines(t)
	met := &obs.HubMetrics{}
	h := startHub(t, HubConfig{BlockSize: 64, Metrics: met})
	addr := h.Addr().String()

	rx, err := DialRxLink(addr, LinkOpts{Link: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	h.mu.Lock()
	old := h.links[5]
	h.mu.Unlock()
	if old == nil {
		t.Fatal("link 5 not registered after OK")
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.evictLink(old, "concurrent eviction race")
		}()
	}
	wg.Wait()
	if got := met.LinksEvicted.Load(); got != 1 {
		t.Fatalf("LinksEvicted = %d after racing evictions, want exactly 1", got)
	}

	// Readmit the same ID: a stale eviction of the old *link value must not
	// touch the fresh registration.
	rx2, err := DialRxLink(addr, LinkOpts{Link: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer rx2.Close()
	h.evictLink(old, "stale eviction of the dead generation")
	h.mu.Lock()
	fresh := h.links[5]
	h.mu.Unlock()
	if fresh == nil || fresh == old {
		t.Fatalf("fresh link 5 = %p (old %p): stale eviction removed the new generation", fresh, old)
	}
	if got := met.LinksEvicted.Load(); got != 1 {
		t.Fatalf("LinksEvicted = %d after stale eviction, want still 1", got)
	}
}

// TestHubEvictionSparesLateAttach replays the empty-link eviction race
// without timing: link 9 is registered and empty, as when its last peer
// has just left and the eviction that departure asked for has not run;
// a transmitter then attaches and is answered OK; only then does the
// eviction run. It must find the link occupied and leave the link and the
// transmitter registered.
func TestHubEvictionSparesLateAttach(t *testing.T) {
	checkGoroutines(t)
	met := &obs.HubMetrics{}
	h := startHub(t, HubConfig{BlockSize: 64, Metrics: met})

	h.mu.Lock()
	lk, err := h.admitLocked(9)
	h.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := DialTxLink(h.Addr().String(), 0, LinkOpts{Link: 9})
	if err != nil {
		t.Fatalf("late transmitter on link 9: %v, want OK", err)
	}
	defer tx.Close()

	h.maybeEvictEmpty(lk)

	h.mu.Lock()
	registered := h.links[9]
	h.mu.Unlock()
	lk.mu.Lock()
	txs, evicted := len(lk.txConns), lk.evicted
	lk.mu.Unlock()
	if registered != lk || txs != 1 || evicted {
		t.Fatalf("after the late eviction: link 9 registered as %p (want %p), %d tx conns, evicted %v",
			registered, lk, txs, evicted)
	}
	if got := met.LinksEvicted.Load(); got != 0 {
		t.Fatalf("LinksEvicted = %d, want 0", got)
	}
}

// TestHubExcludeSelf pins the sense-stream exclusion semantics (the bhssjam
// self-hearing fix): a receiver naming EXCL <tag> hears its link's mix with
// the tagged transmitter's scaled contribution subtracted, while plain
// receivers hear everything. The two phases are sequenced by draining each
// transmission fully, so every expected sample value is exact.
func TestHubExcludeSelf(t *testing.T) {
	checkGoroutines(t)
	h := startHub(t, HubConfig{BlockSize: 64})
	addr := h.Addr().String()

	plain, err := DialRxLink(addr, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	sense, err := DialRxLink(addr, LinkOpts{Exclude: "jam"})
	if err != nil {
		t.Fatal(err)
	}
	defer sense.Close()
	victim, err := DialTxLink(addr, 0, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	// The jam role defaults its contribution tag to "jam".
	jam, err := DialTxLink(addr, 0, LinkOpts{Jam: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jam.Close()

	const n = 1024
	block := make([]complex128, n)

	// Phase 1: only the jammer transmits. The plain receiver hears it; the
	// sense stream hears exact silence — its own contribution subtracted.
	for i := range block {
		block[i] = complex(0, 2)
	}
	if err := jam.Send(block); err != nil {
		t.Fatal(err)
	}
	for i, v := range recvN(t, plain, n) {
		if v != complex(0, 2) {
			t.Fatalf("plain sample %d = %v during jam phase, want 2i", i, v)
		}
	}
	for i, v := range recvN(t, sense, n) {
		if v != 0 {
			t.Fatalf("sense sample %d = %v during jam phase: own transmission leaked into the excluded stream", i, v)
		}
	}

	// Phase 2: only the victim transmits. Both receivers hear it untouched.
	for i := range block {
		block[i] = complex(1, 0)
	}
	if err := victim.Send(block); err != nil {
		t.Fatal(err)
	}
	for i, v := range recvN(t, plain, n) {
		if v != complex(1, 0) {
			t.Fatalf("plain sample %d = %v during victim phase, want 1", i, v)
		}
	}
	for i, v := range recvN(t, sense, n) {
		if v != complex(1, 0) {
			t.Fatalf("sense sample %d = %v during victim phase, want 1: exclusion removed a foreign contribution", i, v)
		}
	}
}

// TestHubPanicIsolation: a panicking hub-side hook tears down only its own
// link — the neighbor keeps streaming — and the panic is counted.
func TestHubPanicIsolation(t *testing.T) {
	checkGoroutines(t)
	met := &obs.HubMetrics{}
	h := startHub(t, HubConfig{
		BlockSize: 64,
		Metrics:   met,
		Jam: func(heard []complex128) []complex128 { // carried by link 0 only
			panic("hostile hook")
		},
	})
	addr := h.Addr().String()

	rx1, err := DialRxLink(addr, LinkOpts{Link: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rx1.Close()
	tx1, err := DialTxLink(addr, 0, LinkOpts{Link: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tx1.Close()

	rx0, err := DialRxLink(addr, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx0.Close()
	tx0, err := DialTxLink(addr, 0, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tx0.Close()
	if err := tx0.Send(make([]complex128, 64)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "recovered panic", func() bool {
		return met.RecoveredPanics.Load() >= 1
	})
	waitFor(t, 5*time.Second, "faulty link eviction", func() bool {
		return met.LinksEvicted.Load() >= 1
	})

	// Link 1 still works end to end after link 0's crash.
	block := make([]complex128, 64)
	for i := range block {
		block[i] = 7
	}
	if err := tx1.Send(block); err != nil {
		t.Fatal(err)
	}
	for i, v := range recvN(t, rx1, 64) {
		if v != 7 {
			t.Fatalf("link 1 sample %d = %v after link 0 panic, want 7", i, v)
		}
	}
	// Link 0's receiver was torn down with its link.
	if err := rx0.SetRecvDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := rx0.Recv(); err != nil {
			break
		}
	}
}

// TestHubHandshakeDeadlines is the slowloris regression: a peer that
// trickles or never finishes its handshake line is cut off by the read
// deadline, and an endless unterminated line is rejected at the buffer
// bound — accept goroutines cannot be pinned by a hostile peer.
func TestHubHandshakeDeadlines(t *testing.T) {
	checkGoroutines(t)
	met := &obs.HubMetrics{}
	h := startHub(t, HubConfig{BlockSize: 64, HandshakeTimeout: 80 * time.Millisecond, Metrics: met})
	addr := h.Addr().String()

	t.Run("silent peer", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Never send a byte: the hub must hang up on its own.
		expectHubHangup(t, conn)
	})
	t.Run("slowloris trickle", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("IQHUB t")); err != nil {
			t.Fatal(err)
		}
		// The rest of the line never arrives.
		expectHubHangup(t, conn)
	})
	t.Run("unterminated line", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		junk := make([]byte, 64<<10) // no newline anywhere
		for i := range junk {
			junk[i] = 'A'
		}
		// A reset mid-write means the hub already hung up — also a pass.
		if _, err := conn.Write(junk); err == nil {
			expectHubHangup(t, conn)
		}
		if met.HandshakeRejects.Load() == 0 {
			t.Fatal("unterminated handshake line not counted as a reject")
		}
	})
}

// expectHubHangup fails unless the hub closes conn well within the test
// deadline (reads drain any ERR reply first).
func expectHubHangup(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for {
		_, err := conn.Read(buf)
		if err == nil {
			continue
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("hub kept the connection open: read timed out")
		}
		return // EOF or reset: the hub hung up
	}
}
