package iqstream

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bhss/internal/obs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHubCloseStopsTxGoroutines pins the transmitter-leak fix: Close must
// sever transmitter connections too, so runTx goroutines blocked in
// ReadBlock unwind without waiting for the peer to hang up.
func TestHubCloseStopsTxGoroutines(t *testing.T) {
	checkGoroutines(t)
	h, err := NewHub("127.0.0.1:0", HubConfig{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve()

	var clients []*Client
	for i := 0; i < 3; i++ {
		tx, err := DialTxLink(h.Addr().String(), 0, LinkOpts{})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, tx)
	}
	rx, err := DialRxLink(h.Addr().String(), LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	clients = append(clients, rx)

	// The clients deliberately stay open across Close: the leak check at
	// cleanup proves the hub did not need them to hang up first.
	h.Close()
	t.Cleanup(func() {
		for _, c := range clients {
			c.Close()
		}
	})
}

// TestHubHandshakeTable covers every handshake verdict, including the
// strict gain parse: an unparsable gain is refused outright, never silently
// run at 0 dB.
func TestHubHandshakeTable(t *testing.T) {
	met := &obs.HubMetrics{}
	h := startHub(t, HubConfig{BlockSize: 64, Metrics: met})
	addr := h.Addr().String()

	cases := []struct {
		name, handshake, want string
	}{
		{"tx with gain", "IQHUB tx 3.5", "OK"},
		{"tx negative gain", "IQHUB tx -20", "OK"},
		{"tx default gain", "IQHUB tx", "OK"},
		{"rx", "IQHUB rx", "OK"},
		{"tx garbage gain", "IQHUB tx loud", "ERR bad gain"},
		{"tx NaN gain", "IQHUB tx NaN", "ERR bad gain"},
		{"tx Inf gain", "IQHUB tx +Inf", "ERR bad gain"},
		{"unknown role", "IQHUB spectator", `ERR unknown role "spectator"`},
		{"wrong magic", "HELLO world", "ERR bad handshake"},
		{"tx with link", "IQHUB tx 3 LINK 7", "OK"},
		{"rx with link", "IQHUB rx LINK 7", "OK"},
		{"jam role", "IQHUB jam", "OK"},
		{"jam with gain link tag", "IQHUB jam -10 LINK 2 TAG j1", "OK"},
		{"tx tagged", "IQHUB tx 0 TAG probe", "OK"},
		{"rx excluding", "IQHUB rx EXCL jam", "OK"},
		{"bad link", "IQHUB tx LINK banana", "ERR bad link"},
		{"link overflow", "IQHUB rx LINK 4294967296", "ERR bad link"},
		{"negative link", "IQHUB rx LINK -1", "ERR bad link"},
		{"bad tag", "IQHUB tx TAG *bad*", "ERR bad tag"},
		{"tag too long", "IQHUB tx TAG " + strings.Repeat("x", MaxTagLen+1), "ERR bad tag"},
		{"empty-ish excl", "IQHUB rx EXCL !", "ERR bad tag"},
		{"dangling key", "IQHUB rx LINK", "ERR bad handshake"},
		{"duplicate key", "IQHUB rx LINK 1 LINK 2", "ERR bad handshake"},
		{"tag on rx", "IQHUB rx TAG x", "ERR bad handshake"},
		{"excl on tx", "IQHUB tx EXCL x", "ERR bad handshake"},
		{"trailing junk", "IQHUB tx 3.5 whatever", "ERR bad handshake"},
	}
	rejects := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fmt.Fprintf(conn, "%s\n", tc.handshake)
			line, err := bufio.NewReader(conn).ReadString('\n')
			if err != nil {
				t.Fatalf("no reply: %v", err)
			}
			if got := strings.TrimSpace(line); got != tc.want {
				t.Fatalf("reply = %q, want %q", got, tc.want)
			}
			if strings.HasPrefix(tc.want, "ERR") {
				rejects++
				// The hub must have closed its side: the next read sees EOF.
				if _, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
					t.Fatal("connection still open after ERR reply")
				}
			}
		})
	}
	waitFor(t, time.Second, "handshake reject counter", func() bool {
		return met.HandshakeRejects.Load() == int64(rejects)
	})
}

// TestHubSlowReceiverEviction proves the mixer never blocks on a wedged
// receiver: the receiver that never reads is evicted once it has dropped
// the majority of a stall-budget window's blocks, and it alone — a healthy
// receiver fed in lockstep keeps streaming before and after.
func TestHubSlowReceiverEviction(t *testing.T) {
	checkGoroutines(t)
	met := &obs.HubMetrics{}
	h := startHub(t, HubConfig{BlockSize: 256, StallBudget: 30 * time.Millisecond, Metrics: met})
	addr := h.Addr().String()

	// The slow receiver completes the handshake and then never reads.
	slow, err := DialRxLink(addr, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, err := DialRxLink(addr, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	tx, err := DialTxLink(addr, 0, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	// Lockstep: the next block is sent only once the healthy receiver has
	// the last one, so its queue never holds more than the 16 mixed blocks
	// of one send, well inside DefaultRxBuffer.
	block := make([]complex128, 4096)
	for i := range block {
		block[i] = 1
	}
	step := func() {
		t.Helper()
		if err := tx.Send(block); err != nil {
			t.Fatalf("tx send: %v", err)
		}
		for i, v := range recvN(t, fast, len(block)) {
			if v != 1 {
				t.Fatalf("healthy receiver sample %d = %v, want 1", i, v)
			}
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for met.RxEvictions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no eviction after %d queue drops", met.RxQueueDrops.Load())
		}
		step()
	}
	step() // the healthy receiver still streams after the eviction
	if got := met.RxEvictions.Load(); got != 1 {
		t.Fatalf("RxEvictions = %d, want 1: the healthy receiver was evicted too", got)
	}
	// The evicted socket is closed server-side: draining it ends in EOF or
	// a reset, never the read deadline.
	expectHubHangup(t, slow.conn)
}

// TestHubTxOverflowBlockDeadline: with no receiver, the transmitter is
// held at the queue bound and disconnected once the wait outlasts the
// overflow deadline; the queue never grew past the bound by more than one
// wire block.
func TestHubTxOverflowBlockDeadline(t *testing.T) {
	checkGoroutines(t)
	met := &obs.HubMetrics{}
	h := startHub(t, HubConfig{
		BlockSize:        256,
		MaxPending:       512,
		OverflowDeadline: 50 * time.Millisecond,
		Metrics:          met,
	})
	tx, err := DialTxLink(h.Addr().String(), 0, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	block := make([]complex128, 512)
	// First block is admitted (empty queue); the second is read off the
	// socket and then held at the bound until the deadline kills the
	// connection.
	for i := 0; i < 4; i++ {
		if err := tx.Send(block); err != nil {
			break // broken pipe once the hub hangs up — expected
		}
	}
	waitFor(t, 5*time.Second, "overflow kill", func() bool {
		return met.TxOverflowKills.Load() == 1
	})
	if met.TxOverflowWaits.Load() == 0 {
		t.Fatal("expected at least one backpressure wait before the kill")
	}
	if hw := met.QueueHighWater.Load(); hw == 0 || hw > 512+512 {
		t.Fatalf("queue high-water %v out of (0, 1024]: the bound is soft by at most one block", hw)
	}
}

// TestHubTxBackpressureRecovers: backpressure is lossless when a receiver
// is draining — every sample sent arrives despite the tiny bound. The
// receiver queue holds the whole stream (80 mixed blocks), so a writer
// goroutine descheduled for a while cannot cost it a block.
func TestHubTxBackpressureRecovers(t *testing.T) {
	checkGoroutines(t)
	met := &obs.HubMetrics{}
	const blocks, blockLen, mixBlock = 40, 256, 128
	h := startHub(t, HubConfig{
		BlockSize:  mixBlock,
		MaxPending: 256,
		RxBuffer:   blocks * blockLen / mixBlock,
		Metrics:    met,
	})
	addr := h.Addr().String()
	rx, err := DialRxLink(addr, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := DialTxLink(addr, 0, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	go func() {
		block := make([]complex128, blockLen)
		for i := range block {
			block[i] = 1
		}
		for i := 0; i < blocks; i++ {
			if err := tx.Send(block); err != nil {
				return
			}
		}
	}()
	got := recvN(t, rx, blocks*blockLen)
	for i, v := range got {
		if real(v) != 1 || imag(v) != 0 {
			t.Fatalf("sample %d = %v, want 1", i, v)
		}
	}
	if d := met.RxQueueDrops.Load(); d != 0 {
		t.Fatalf("RxQueueDrops = %d, want 0", d)
	}
}

// TestHubDepartedTxQueuesFreed: a transmitter that leaves link 0 while no
// receiver is attached takes its pending queue with it. Link 0 is never
// evicted, so a kept queue would hold its samples for the hub's lifetime,
// one more per reconnect cycle.
func TestHubDepartedTxQueuesFreed(t *testing.T) {
	checkGoroutines(t)
	met := &obs.HubMetrics{}
	h := startHub(t, HubConfig{BlockSize: 256, MaxPending: 512, Metrics: met})
	block := make([]complex128, 512)
	for i := 1; i <= 8; i++ {
		tx, err := DialTxLink(h.Addr().String(), 0, LinkOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Send(block); err != nil {
			t.Fatal(err)
		}
		tx.Close()
		waitFor(t, 5*time.Second, "transmitter departure", func() bool {
			h.mu.Lock()
			lk := h.links[0]
			h.mu.Unlock()
			lk.mu.Lock()
			defer lk.mu.Unlock()
			return met.TxAccepted.Load() == int64(i) && len(lk.txConns) == 0
		})
	}
	if n := h.pendingSamples(); n > 1024 {
		t.Fatalf("%d samples still pending after 8 departures with no receiver, want <= 1024", n)
	}
}

// TestHubLink0ReconnectBitIdentical: with a receiver attached, a
// transmitter that reconnects between blocks leaves link 0's stream — its
// noise included — bit-identical to an unbroken transmitter's.
func TestHubLink0ReconnectBitIdentical(t *testing.T) {
	checkGoroutines(t)
	stream := func(reconnect bool) []complex128 {
		h := startHub(t, HubConfig{BlockSize: 256, NoiseVar: 0.5, Seed: 11})
		rx, err := DialRxLink(h.Addr().String(), LinkOpts{})
		if err != nil {
			t.Fatal(err)
		}
		defer rx.Close()
		var tx *Client
		var got []complex128
		block := make([]complex128, 1024)
		for i := 0; i < 3; i++ {
			if tx == nil || reconnect {
				if tx != nil {
					tx.Close()
				}
				if tx, err = DialTxLink(h.Addr().String(), 0, LinkOpts{}); err != nil {
					t.Fatal(err)
				}
			}
			for j := range block {
				block[j] = complex(float64(i+1), float64(j))
			}
			if err := tx.Send(block); err != nil {
				t.Fatal(err)
			}
			got = append(got, recvN(t, rx, len(block))...)
		}
		tx.Close()
		return got
	}
	want, got := stream(false), stream(true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %v after reconnects, want %v", i, got[i], want[i])
		}
	}
}

// TestHubShutdownDrains: a graceful shutdown delivers every already-queued
// sample to the receivers before closing.
func TestHubShutdownDrains(t *testing.T) {
	checkGoroutines(t)
	h, err := NewHub("127.0.0.1:0", HubConfig{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve()
	t.Cleanup(func() { h.Close() })
	addr := h.Addr().String()

	tx, err := DialTxLink(addr, 0, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	const total = 10 * 256
	block := make([]complex128, 256)
	for i := range block {
		block[i] = 2
	}
	for i := 0; i < 10; i++ {
		if err := tx.Send(block); err != nil {
			t.Fatal(err)
		}
	}
	// No receiver yet, so nothing mixes: wait until the hub has enqueued
	// everything, then connect the receiver and shut down.
	waitFor(t, 5*time.Second, "tx queue fill", func() bool {
		return h.pendingSamples() == total
	})
	rx, err := DialRxLink(addr, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- h.Shutdown(ctx)
	}()
	got := recvN(t, rx, total)
	for i, v := range got {
		if real(v) != 2 {
			t.Fatalf("sample %d = %v, want 2", i, v)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After the drain the hub is fully closed: the stream ends.
	if err := rx.SetRecvDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Recv(); err == nil {
		t.Fatal("stream still open after drained shutdown")
	}
}

// TestHubShutdownDeadline: an undrainable queue (stalled receiver) cannot
// hold Shutdown hostage — the context bounds it.
func TestHubShutdownDeadline(t *testing.T) {
	checkGoroutines(t)
	h, err := NewHub("127.0.0.1:0", HubConfig{BlockSize: 256, RxBuffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve()
	t.Cleanup(func() { h.Close() })
	addr := h.Addr().String()

	rx, err := DialRxLink(addr, LinkOpts{}) // never reads
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := DialTxLink(addr, 0, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	block := make([]complex128, 4096)
	for i := 0; i < 64; i++ {
		if err := tx.Send(block); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := h.Shutdown(ctx); err != context.DeadlineExceeded {
		// The wedged receiver may also have been fully flushed into OS
		// socket buffers, in which case the drain legitimately finishes.
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}
}

// TestHubConnectionChurn hammers the hub with concurrent connect/disconnect
// cycles of both roles while a persistent link keeps flowing — run under
// -race this pins the registration/eviction locking, and the goroutine
// check pins the teardown of every handler.
func TestHubConnectionChurn(t *testing.T) {
	checkGoroutines(t)
	// Default StallBudget: an unthrottled transmitter makes the mixer
	// outrun even a healthy receiver, and this test is about churn, not
	// eviction.
	h := startHub(t, HubConfig{BlockSize: 256, MaxPending: 1 << 16})
	addr := h.Addr().String()

	rx, err := DialRxLink(addr, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := DialTxLink(addr, 0, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	stop := make(chan struct{})
	var txErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // persistent transmitter
		defer wg.Done()
		block := make([]complex128, 1024)
		for i := range block {
			block[i] = 1
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tx.Send(block); err != nil {
				txErr = err
				return
			}
		}
	}()

	const churners = 6
	const rounds = 15
	wg.Add(churners)
	for c := 0; c < churners; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if c%2 == 0 {
					cl, err := DialTxLink(addr, -10, LinkOpts{})
					if err != nil {
						continue // hub teardown race at test end is fine
					}
					_ = cl.Send(make([]complex128, 512))
					cl.Close()
				} else {
					cl, err := DialRxLink(addr, LinkOpts{})
					if err != nil {
						continue
					}
					_ = cl.SetRecvDeadline(time.Now().Add(20 * time.Millisecond))
					_, _ = cl.Recv()
					cl.Close()
				}
			}
		}(c)
	}

	// The persistent receiver must keep making progress through the churn.
	got := recvN(t, rx, 1<<18)
	if len(got) != 1<<18 {
		t.Fatalf("persistent rx got %d samples", len(got))
	}
	close(stop)
	wg.Wait()
	if txErr != nil {
		t.Fatalf("persistent tx failed: %v", txErr)
	}
}

// TestHubJamHook pins the hub-side adversary semantics (bhssair -jam): the
// hook overhears the clean mixed block — its own interference is NOT looped
// back into what it senses, unlike a bhssjam client — and the returned
// waveform rides on top of the mix that every receiver sees.
func TestHubJamHook(t *testing.T) {
	checkGoroutines(t)
	var heard []complex128
	h := startHub(t, HubConfig{
		BlockSize: 64,
		Jam: func(mix []complex128) []complex128 {
			heard = append(heard[:0], mix...)
			j := make([]complex128, len(mix))
			for i := range j {
				j[i] = complex(0, 3)
			}
			return j
		},
	})
	addr := h.Addr().String()
	rx, err := DialRxLink(addr, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := DialTxLink(addr, 0, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	block := make([]complex128, 64)
	for i := range block {
		block[i] = 1
	}
	if err := tx.Send(block); err != nil {
		t.Fatal(err)
	}
	got := recvN(t, rx, 64)
	for i, v := range got {
		if v != complex(1, 3) {
			t.Fatalf("sample %d = %v, want (1+3i): jam waveform missing from the mix", i, v)
		}
	}
	// The receive above happens-after the mixer's Jam call (channel send +
	// socket write), so reading the captured sense buffer here is ordered.
	if len(heard) != 64 {
		t.Fatalf("adversary heard %d samples, want 64", len(heard))
	}
	for i, v := range heard {
		if v != 1 {
			t.Fatalf("heard[%d] = %v, want the clean pre-jam mix (1)", i, v)
		}
	}
}

// TestHubConfigResilienceValidation extends the config validation to the
// transport fields: a negative bound is an error, never a way to disable it.
func TestHubConfigResilienceValidation(t *testing.T) {
	bad := []HubConfig{
		{MaxPending: -1},
		{RxBuffer: -1},
		{MaxLinks: -1},
		{OverflowDeadline: -time.Second},
		{StallBudget: -time.Second},
		{HandshakeTimeout: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewHub("127.0.0.1:0", cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}
