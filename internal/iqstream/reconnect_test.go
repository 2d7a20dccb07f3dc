package iqstream

import (
	"errors"
	"net"
	"testing"
	"time"

	"bhss/internal/obs"
	"bhss/internal/prng"
)

// TestBackoffScheduleDeterministic pins the jittered backoff schedule: the
// same seed yields the same delays, a different seed yields different
// ones, and every delay respects base·mult^k scaled by ±jitter and the
// max cap.
func TestBackoffScheduleDeterministic(t *testing.T) {
	mk := func(seed uint64) []time.Duration {
		rc := &ReconnectingClient{cfg: ReconnectConfig{
			BackoffBase: 100 * time.Millisecond,
			BackoffMax:  2 * time.Second,
			Multiplier:  2,
			Jitter:      0.2,
		}}
		rc.rng = prng.New(seed)
		var out []time.Duration
		for k := 0; k < 8; k++ {
			out = append(out, rc.backoffDelay(k))
		}
		return out
	}
	a, b, c := mk(7), mk(7), mk(8)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", k, a[k], b[k])
		}
		ideal := float64(100*time.Millisecond) * float64(int(1)<<k)
		if m := float64(2 * time.Second); ideal > m {
			ideal = m
		}
		lo, hi := time.Duration(0.8*ideal), time.Duration(1.2*ideal)
		if a[k] < lo || a[k] > hi {
			t.Fatalf("attempt %d delay %v outside [%v, %v]", k, a[k], lo, hi)
		}
	}
	same := true
	for k := range a {
		if a[k] != c[k] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter schedules")
	}
}

// TestReconnectConfigValidation rejects nonsense retry parameters.
func TestReconnectConfigValidation(t *testing.T) {
	bad := []ReconnectConfig{
		{BackoffBase: -time.Second},
		{BackoffBase: time.Second, BackoffMax: time.Millisecond},
		{Multiplier: 0.5},
		{Jitter: 1.5},
	}
	for i, cfg := range bad {
		if _, err := DialRxReconnecting("127.0.0.1:1", cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

// TestReconnectingDialRetries counts dial attempts against a dead address
// and pins that the recorded sleeps follow one per failed attempt except
// the last.
func TestReconnectingDialRetries(t *testing.T) {
	// A listener we close immediately: the port is valid but refuses.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	met := &obs.NetMetrics{}
	var slept []time.Duration
	_, err = DialRxReconnecting(addr, ReconnectConfig{
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		MaxAttempts: 4,
		Metrics:     met,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	if err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	if got := met.DialAttempts.Load(); got != 4 {
		t.Fatalf("dial attempts = %d, want 4", got)
	}
	if got := met.DialFailures.Load(); got != 4 {
		t.Fatalf("dial failures = %d, want 4", got)
	}
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3 (no sleep after the final attempt)", len(slept))
	}
}

// TestReconnectingSendRecovers kills the tx connection server-side and
// checks the next Send transparently redials, so the stream continues with
// at most bounded loss.
func TestReconnectingSendRecovers(t *testing.T) {
	checkGoroutines(t)
	met := &obs.NetMetrics{}
	h := startHub(t, HubConfig{BlockSize: 256})
	addr := h.Addr().String()

	rx, err := DialRxLink(addr, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	tx, err := DialTxReconnecting(addr, 0, ReconnectConfig{
		BackoffBase: time.Millisecond,
		Metrics:     met,
		Sleep:       func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	block := make([]complex128, 512)
	if err := tx.Send(block); err != nil {
		t.Fatalf("first send: %v", err)
	}

	// Sever every tx connection hub-side; the client only notices on its
	// next write (possibly the one after, thanks to kernel buffering).
	for _, lk := range h.linksSnapshot() {
		lk.mu.Lock()
		for _, c := range lk.txConns {
			c.Close()
		}
		lk.mu.Unlock()
	}

	deadline := time.Now().Add(5 * time.Second)
	for tx.Reconnects() == 0 && time.Now().Before(deadline) {
		if err := tx.Send(block); err != nil {
			t.Fatalf("send did not recover: %v", err)
		}
	}
	if tx.Reconnects() == 0 {
		t.Fatal("no reconnect after server-side kill")
	}
	if met.Reconnects.Load() == 0 {
		t.Fatal("reconnect not counted in metrics")
	}
}

// TestReconnectingRecvStreamGap kills the rx connection server-side and
// checks Recv surfaces exactly one ErrStreamGap, then resumes delivering
// blocks from the fresh connection.
func TestReconnectingRecvStreamGap(t *testing.T) {
	checkGoroutines(t)
	met := &obs.NetMetrics{}
	h := startHub(t, HubConfig{BlockSize: 256})
	addr := h.Addr().String()

	rx, err := DialRxReconnecting(addr, ReconnectConfig{
		BackoffBase: time.Millisecond,
		Metrics:     met,
		Sleep:       func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	tx, err := DialTxLink(addr, 0, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	feed := make(chan struct{})
	go func() {
		block := make([]complex128, 512)
		for {
			select {
			case <-feed:
				return
			default:
			}
			if err := tx.Send(block); err != nil {
				return
			}
		}
	}()
	defer close(feed)

	if _, err := rx.Recv(); err != nil {
		t.Fatalf("first recv: %v", err)
	}

	// Sever the receiver connection hub-side.
	for _, lk := range h.linksSnapshot() {
		lk.mu.Lock()
		for _, r := range lk.rxs {
			h.removeRxLocked(lk, r, "test kill")
		}
		lk.mu.Unlock()
	}

	var sawGap bool
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, err := rx.Recv()
		if err == nil {
			if sawGap {
				break // resumed after the gap: done
			}
			continue
		}
		if !errors.Is(err, ErrStreamGap) {
			t.Fatalf("recv: %v", err)
		}
		if sawGap {
			t.Fatal("ErrStreamGap surfaced twice for one fault")
		}
		sawGap = true
	}
	if !sawGap {
		t.Fatal("no ErrStreamGap after server-side kill")
	}
	if met.StreamGaps.Load() != 1 {
		t.Fatalf("stream gaps = %d, want 1", met.StreamGaps.Load())
	}
	if met.Reconnects.Load() == 0 {
		t.Fatal("reconnect not counted in metrics")
	}
}

// TestReconnectingClientClosed pins the post-Close error surface.
func TestReconnectingClientClosed(t *testing.T) {
	h := startHub(t, HubConfig{BlockSize: 256})
	addr := h.Addr().String()

	rc, err := DialTxReconnecting(addr, 0, ReconnectConfig{Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := rc.Send(make([]complex128, 8)); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if _, err := rc.Recv(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("recv after close: %v", err)
	}
	if err := rc.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestReconnectingCloseAbortsConnect pins that Close from another
// goroutine aborts an in-flight reconnect cycle (not just the initial
// dial).
func TestReconnectingCloseAbortsConnect(t *testing.T) {
	h := startHub(t, HubConfig{BlockSize: 256})
	addr := h.Addr().String()

	rc, err := DialTxReconnecting(addr, 0, ReconnectConfig{
		BackoffBase: time.Millisecond,
		MaxAttempts: -1,
		Sleep:       func(time.Duration) { time.Sleep(time.Millisecond) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Stop the hub entirely, then sever the connection: the next Send
	// enters the retry-forever loop.
	h.Close()
	rc.mu.Lock()
	if rc.c != nil {
		rc.c.Close()
	}
	rc.mu.Unlock()

	done := make(chan error, 1)
	go func() { done <- rc.Send(make([]complex128, 8)) }()
	time.Sleep(10 * time.Millisecond)
	rc.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("aborted send returned %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not abort the retry loop")
	}
}
