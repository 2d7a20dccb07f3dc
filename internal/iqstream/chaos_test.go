package iqstream

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestParseChaosSpecTable pins the grammar: good specs parse to the
// expected config and render back canonically; bad specs are rejected with
// a mention of the offending key.
func TestParseChaosSpecTable(t *testing.T) {
	good := []struct {
		spec      string
		want      ChaosConfig
		canonical string
	}{
		{"", ChaosConfig{}, ""},
		{"   ", ChaosConfig{}, ""},
		{"latency=5", ChaosConfig{LatencyMS: 5}, "latency=5:0"},
		{"latency=5:2", ChaosConfig{LatencyMS: 5, LatencyJitterMS: 2}, "latency=5:2"},
		{"stall=0.1:250", ChaosConfig{StallProb: 0.1, StallMS: 250}, "stall=0.1:250"},
		{"reset=0.01", ChaosConfig{ResetProb: 0.01}, "reset=0.01"},
		{"resetevery=4096", ChaosConfig{ResetEvery: 4096}, "resetevery=4096"},
		{"trunc=0.05", ChaosConfig{TruncProb: 0.05}, "trunc=0.05"},
		{"short=0.5", ChaosConfig{ShortWriteProb: 0.5}, "short=0.5"},
		{"drop=1", ChaosConfig{DropProb: 1}, "drop=1"},
		{"seed=42", ChaosConfig{Seed: 42, HasSeed: true}, "seed=42"},
		{" reset=0.5 , seed=7 ", ChaosConfig{ResetProb: 0.5, Seed: 7, HasSeed: true}, "reset=0.5,seed=7"},
		{
			"drop=0.2,latency=1:3,seed=9,short=0.3,reset=0.1,resetevery=100,trunc=0.4,stall=0.6:20",
			ChaosConfig{
				LatencyMS: 1, LatencyJitterMS: 3,
				StallProb: 0.6, StallMS: 20,
				ResetProb: 0.1, ResetEvery: 100,
				TruncProb: 0.4, ShortWriteProb: 0.3, DropProb: 0.2,
				Seed: 9, HasSeed: true,
			},
			"latency=1:3,stall=0.6:20,reset=0.1,resetevery=100,trunc=0.4,short=0.3,drop=0.2,seed=9",
		},
	}
	for _, tc := range good {
		got, err := ParseChaosSpec(tc.spec)
		if err != nil {
			t.Fatalf("ParseChaosSpec(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Fatalf("ParseChaosSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		if s := got.String(); s != tc.canonical {
			t.Fatalf("ParseChaosSpec(%q).String() = %q, want %q", tc.spec, s, tc.canonical)
		}
	}

	bad := []struct{ spec, mention string }{
		{",", "empty entry"},
		{"reset=0.1,", "empty entry"},
		{"reset", "key=value"},
		{"volume=11", "unknown chaos key"},
		{"latency=NaN", "latency"},
		{"latency=-1", "latency"},
		{"latency=999999", "latency"},
		{"latency=1:Inf", "latency"},
		{"stall=2:10", "stall"},
		{"stall=0.1:-5", "stall"},
		{"reset=1.5", "reset"},
		{"reset=-0.1", "reset"},
		{"resetevery=-1", "resetevery"},
		{"resetevery=banana", "resetevery"},
		{"resetevery=99999999999999999999", "resetevery"},
		{"trunc=2", "trunc"},
		{"short=nope", "short"},
		{"drop=1.01", "drop"},
		{"seed=-1", "seed"},
		{"seed=pi", "seed"},
		{"reset=0.1,reset=0.2", "duplicate"},
	}
	for _, tc := range bad {
		if _, err := ParseChaosSpec(tc.spec); err == nil {
			t.Fatalf("ParseChaosSpec(%q) accepted", tc.spec)
		} else if !strings.Contains(err.Error(), tc.mention) {
			t.Fatalf("ParseChaosSpec(%q) error %q does not mention %q", tc.spec, err, tc.mention)
		}
	}
}

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				_, _ = io.Copy(conn, conn)
			}()
		}
	}()
	return ln.Addr()
}

func startChaosProxy(t *testing.T, upstream string, spec string, seed uint64) *ChaosProxy {
	t.Helper()
	p, err := NewChaosProxyFromSpec("127.0.0.1:0", upstream, spec, seed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Serve() }()
	t.Cleanup(func() {
		p.Close()
		if err := <-done; err != nil {
			t.Errorf("proxy serve: %v", err)
		}
	})
	return p
}

// TestChaosProxyTransparent pins that an empty spec forwards bytes
// unmodified in both directions.
func TestChaosProxyTransparent(t *testing.T) {
	checkGoroutines(t)
	up := echoServer(t)
	p := startChaosProxy(t, up.String(), "", 1)

	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	msg := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB, > one pump chunk
	go func() { _, _ = conn.Write(msg) }()
	got := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("echo through transparent proxy mutated bytes")
	}
}

// TestChaosProxyResetEvery pins the deterministic reset position: the
// link dies at exactly the configured byte offset, every time, no matter
// how writes are sliced into chunks.
func TestChaosProxyResetEvery(t *testing.T) {
	checkGoroutines(t)
	up := echoServer(t)
	p := startChaosProxy(t, up.String(), "resetevery=10", 1)

	for round := 0; round < 3; round++ {
		conn, err := net.Dial("tcp", p.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		// 4-byte round trips: bytes 4 and 8 pass, the third write crosses
		// the 10-byte boundary, so only its 2-byte prefix survives before
		// the reset.
		buf := make([]byte, 4)
		survived := 0
		for i := 0; i < 10; i++ {
			if _, err := conn.Write([]byte("ping")); err != nil {
				break
			}
			if _, err := io.ReadFull(conn, buf); err != nil {
				break
			}
			survived++
		}
		conn.Close()
		if survived != 2 {
			t.Fatalf("round %d: %d echo round-trips before reset, want 2", round, survived)
		}
	}
}

// TestChaosProxyDropSplices pins that drop=1 silently discards chunks
// while keeping the connection open: the reader sees nothing.
func TestChaosProxyDropSplices(t *testing.T) {
	checkGoroutines(t)
	up := echoServer(t)
	p := startChaosProxy(t, up.String(), "drop=1", 1)

	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("into the void")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("read data through a drop=1 proxy")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("want timeout (connection alive, data gone), got %v", err)
	}
}

// TestChaosProxyShortWrites pins that short=1 still delivers every byte —
// chopped framing, same content.
func TestChaosProxyShortWrites(t *testing.T) {
	checkGoroutines(t)
	up := echoServer(t)
	p := startChaosProxy(t, up.String(), "short=1", 1)

	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := bytes.Repeat([]byte("x0y1"), 2048)
	go func() { _, _ = conn.Write(msg) }()
	got := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("short-write proxy corrupted content")
	}
}

// TestChaosProxyLatencyFloor pins that latency=<ms> delays each chunk by
// at least that much.
func TestChaosProxyLatencyFloor(t *testing.T) {
	checkGoroutines(t)
	up := echoServer(t)
	p := startChaosProxy(t, up.String(), "latency=30", 1)

	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	// Two pumps (request + reply) each add >= 30 ms.
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("round trip %v, want >= 60ms under latency=30", elapsed)
	}
}

// TestChaosProxyTruncResets pins that trunc=1 forwards at most a strict
// prefix and then kills the link.
func TestChaosProxyTruncResets(t *testing.T) {
	checkGoroutines(t)
	up := echoServer(t)
	p := startChaosProxy(t, up.String(), "trunc=1", 1)

	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	msg := bytes.Repeat([]byte("z"), 4096)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(conn) // ends when the proxy resets the link
	if len(got) >= len(msg) {
		t.Fatalf("trunc=1 delivered %d of %d bytes, want a strict prefix", len(got), len(msg))
	}
}

// TestChaosProxyHubEndToEnd drives the real hub protocol through a
// resetting proxy with reconnecting clients: traffic keeps flowing, at
// least one reconnect happens, and nothing deadlocks.
func TestChaosProxyHubEndToEnd(t *testing.T) {
	checkGoroutines(t)
	h := startHub(t, HubConfig{BlockSize: 256})
	// 256 KiB per direction per connection: every link survives a handful
	// of 16 KiB wire blocks, then dies mid-stream.
	p := startChaosProxy(t, h.Addr().String(), "resetevery=262144,seed=3", 3)
	addr := p.Addr().String()

	cfg := ReconnectConfig{BackoffBase: time.Millisecond, Sleep: func(time.Duration) {}}
	tx, err := DialTxLinkReconnecting(addr, 0, LinkOpts{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	rx, err := DialRxLinkReconnecting(addr, LinkOpts{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		block := make([]complex128, 1024)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = tx.Send(block) // faults surface as reconnects; keep pumping
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	var received int
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		block, err := rx.Recv()
		if err != nil {
			continue // ErrStreamGap or a mid-redial fault: re-acquire and go on
		}
		received += len(block)
		if received >= 1<<18 && rx.Reconnects()+tx.Reconnects() > 0 {
			return // flowed through faults, with at least one reconnect
		}
	}
	t.Fatalf("after 15s: received %d samples, tx reconnects %d, rx reconnects %d",
		received, tx.Reconnects(), rx.Reconnects())
}
