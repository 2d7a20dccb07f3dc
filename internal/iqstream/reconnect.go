package iqstream

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bhss/internal/obs"
	"bhss/internal/prng"
)

// Reconnection defaults (DESIGN.md §12). Zero ReconnectConfig fields take
// these values.
const (
	// DefaultBackoffBase is the first retry delay.
	DefaultBackoffBase = 50 * time.Millisecond
	// DefaultBackoffMax caps the exponential growth.
	DefaultBackoffMax = 5 * time.Second
	// DefaultMaxAttempts bounds the dial attempts of one (re)connect
	// cycle.
	DefaultMaxAttempts = 8
)

// The backoff's shape: each delay doubles the last, scaled by a factor in
// [1−backoffJitter, 1+backoffJitter].
const (
	backoffMultiplier = 2.0
	backoffJitter     = 0.2
)

// ErrStreamGap is returned by ReconnectingClient.Recv exactly once after a
// successful reconnect: the sample stream has a discontinuity of unknown
// length, so the caller must drop any partially accumulated burst window
// and re-acquire (re-arm preamble search) before trusting new samples.
var ErrStreamGap = errors.New("iqstream: stream gap after reconnect, re-acquire")

// ErrClientClosed is returned by ReconnectingClient calls after Close.
var ErrClientClosed = errors.New("iqstream: client closed")

// ReconnectConfig parameterizes a ReconnectingClient's retry behaviour.
// Backoff is exponential with deterministic, seeded jitter: delay k is
// min(BackoffMax, BackoffBase·2^k) scaled by a uniform factor in
// [0.8, 1.2] drawn from internal/prng, so two clients with different seeds
// never thundering-herd the hub in lockstep while a given (seed, fault
// schedule) still replays exactly.
type ReconnectConfig struct {
	// BackoffBase is the first retry delay (0 = DefaultBackoffBase).
	BackoffBase time.Duration
	// BackoffMax caps the delay growth (0 = DefaultBackoffMax).
	BackoffMax time.Duration
	// MaxAttempts bounds the dial attempts of one (re)connect cycle
	// before the error is surfaced (0 = DefaultMaxAttempts; negative
	// means retry forever).
	MaxAttempts int
	// Seed drives the jitter PRNG.
	Seed uint64
	// Metrics, when non-nil, receives client resilience counters
	// (typically &pipeline.Net of an obs.Pipeline).
	Metrics *obs.NetMetrics
	// Logf receives retry events; nil silences them.
	Logf func(format string, args ...any)
	// Sleep replaces time.Sleep between attempts; tests inject a recorder
	// here to pin the backoff schedule without waiting it out.
	Sleep func(time.Duration)
}

// ReconnectingClient wraps the hub client protocol with automatic
// redial-and-handshake on any transport fault. Send retries over a fresh
// connection; Recv surfaces each reconnect as a single ErrStreamGap so the
// receive pipeline can count the spanning burst lost and re-acquire rather
// than wedge on spliced samples. Like Client, it is not safe for
// concurrent Send/Recv use, but Close may be called from another goroutine
// to abort a retry loop.
type ReconnectingClient struct {
	addr      string
	handshake string
	cfg       ReconnectConfig
	met       *obs.NetMetrics
	rng       *prng.Source

	mu     sync.Mutex
	c      *Client
	closed bool

	reconnects atomic.Int64
}

// DialTxLinkReconnecting connects as a transmitter with the given port
// gain on one link (or as a tagged jammer, per opts; LinkOpts{} is link 0),
// retrying with backoff until the hub accepts (or MaxAttempts is spent).
// Each redial re-sends the same link handshake.
func DialTxLinkReconnecting(addr string, gainDB float64, o LinkOpts, cfg ReconnectConfig) (*ReconnectingClient, error) {
	return dialReconnecting(addr, txHandshakeLine(gainDB, o), cfg)
}

// DialRxLinkReconnecting connects as a receiver on one link, optionally
// excluding a tagged contribution from the received mix, retrying with
// backoff until the hub accepts (or MaxAttempts is spent).
func DialRxLinkReconnecting(addr string, o LinkOpts, cfg ReconnectConfig) (*ReconnectingClient, error) {
	return dialReconnecting(addr, rxHandshakeLine(o), cfg)
}

func dialReconnecting(addr, handshake string, cfg ReconnectConfig) (*ReconnectingClient, error) {
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffBase < 0 {
		return nil, fmt.Errorf("iqstream: negative backoff base")
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.BackoffMax < cfg.BackoffBase {
		return nil, fmt.Errorf("iqstream: backoff max %v below base %v", cfg.BackoffMax, cfg.BackoffBase)
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	met := cfg.Metrics
	if met == nil {
		met = new(obs.NetMetrics)
	}
	rc := &ReconnectingClient{
		addr:      addr,
		handshake: handshake,
		cfg:       cfg,
		met:       met,
		rng:       prng.New(cfg.Seed),
	}
	if err := rc.connect(); err != nil {
		return nil, err
	}
	return rc, nil
}

// backoffDelay returns the delay before dial attempt number attempt
// (0-based), jittered deterministically from the configured seed.
func (rc *ReconnectingClient) backoffDelay(attempt int) time.Duration {
	d := float64(rc.cfg.BackoffBase) * math.Pow(backoffMultiplier, float64(attempt))
	if m := float64(rc.cfg.BackoffMax); d > m {
		d = m
	}
	d *= 1 + backoffJitter*(2*rc.rng.Float64()-1)
	return time.Duration(d)
}

// connect runs one dial-with-backoff cycle (handshake included — dial only
// succeeds after the hub's OK) and installs the fresh connection.
func (rc *ReconnectingClient) connect() error {
	for attempt := 0; ; attempt++ {
		rc.mu.Lock()
		closed := rc.closed
		rc.mu.Unlock()
		if closed {
			return ErrClientClosed
		}
		rc.met.DialAttempts.Inc()
		c, err := dial(rc.addr, rc.handshake)
		if err == nil {
			rc.mu.Lock()
			if rc.closed {
				rc.mu.Unlock()
				c.Close()
				return ErrClientClosed
			}
			rc.c = c
			rc.mu.Unlock()
			return nil
		}
		rc.met.DialFailures.Inc()
		rc.cfg.Logf("dial %s failed (attempt %d): %v", rc.addr, attempt+1, err)
		if rc.cfg.MaxAttempts > 0 && attempt+1 >= rc.cfg.MaxAttempts {
			return fmt.Errorf("iqstream: connect to %s failed after %d attempts: %w", rc.addr, attempt+1, err)
		}
		rc.cfg.Sleep(rc.backoffDelay(attempt))
	}
}

// current returns the live connection (nil after a fault) or
// ErrClientClosed.
func (rc *ReconnectingClient) current() (*Client, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return nil, ErrClientClosed
	}
	return rc.c, nil
}

// drop discards a faulted connection (if it is still the current one).
func (rc *ReconnectingClient) drop(c *Client) {
	rc.mu.Lock()
	if rc.c == c {
		rc.c = nil
	}
	rc.mu.Unlock()
	c.Close()
}

// noteReconnect records one successful re-establishment.
func (rc *ReconnectingClient) noteReconnect() {
	rc.reconnects.Add(1)
	rc.met.Reconnects.Inc()
	rc.cfg.Logf("reconnected to %s (total %d)", rc.addr, rc.reconnects.Load())
}

// Send writes one block, transparently redialing on transport faults. A
// block that faulted mid-write may be lost (the hub discards the truncated
// wire block): bounded loss, never a wedged link.
func (rc *ReconnectingClient) Send(samples []complex128) error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c, err := rc.current()
		if err != nil {
			return err
		}
		if c == nil {
			if err := rc.connect(); err != nil {
				return err
			}
			rc.noteReconnect()
			continue
		}
		err = c.Send(samples)
		if err == nil {
			return nil
		}
		lastErr = err
		rc.drop(c)
	}
	return fmt.Errorf("iqstream: send to %s kept failing across reconnects: %w", rc.addr, lastErr)
}

// Recv reads the next mixed block. As with Client.Recv, the block is valid
// only until the next Recv; a caller that keeps samples past it copies
// them. After any transport fault it redials and returns ErrStreamGap
// exactly once; the following Recv resumes on the fresh stream, which
// begins at a clean wire-block boundary.
func (rc *ReconnectingClient) Recv() ([]complex128, error) {
	c, err := rc.current()
	if err != nil {
		return nil, err
	}
	if c != nil {
		block, err := c.Recv()
		if err == nil {
			return block, nil
		}
		rc.drop(c)
	}
	if err := rc.connect(); err != nil {
		return nil, err
	}
	rc.noteReconnect()
	rc.met.StreamGaps.Inc()
	return nil, ErrStreamGap
}

// Reconnects returns the number of successful re-establishments so far.
func (rc *ReconnectingClient) Reconnects() int64 { return rc.reconnects.Load() }

// Close disconnects and aborts any in-flight retry loop.
func (rc *ReconnectingClient) Close() error {
	rc.mu.Lock()
	rc.closed = true
	c := rc.c
	rc.c = nil
	rc.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
