package iqstream

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"bhss/internal/core"
	"bhss/internal/dsp"
)

func TestBlockRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	blocks := [][]complex128{
		{},
		{1 + 2i},
		{0.5, -0.25i, 3 - 4i, 0},
	}
	for _, b := range blocks {
		if err := w.WriteBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, want := range blocks {
		got, err := r.ReadBlock()
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("block %d: %d samples, want %d", i, len(got), len(want))
		}
		for k := range want {
			if d := got[k] - want[k]; math.Hypot(real(d), imag(d)) > 1e-6 {
				t.Fatalf("block %d sample %d: %v != %v", i, k, got[k], want[k])
			}
		}
	}
	if _, err := r.ReadBlock(); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

func TestBlockRejectsOversize(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteBlock(make([]complex128, MaxBlock+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestReaderBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("XXXX\x01\x00\x00\x00garbage!")))
	if _, err := r.ReadBlock(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReaderTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBlock([]complex128{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r := NewReader(bytes.NewReader(data[:len(data)-4]))
	if _, err := r.ReadBlock(); !errors.Is(err, ErrShortRead) {
		t.Fatalf("err = %v, want ErrShortRead", err)
	}
}

func startHub(t *testing.T, cfg HubConfig) *Hub {
	t.Helper()
	h, err := NewHub("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve()
	t.Cleanup(func() { h.Close() })
	return h
}

// recvN collects at least n samples from a receiver client.
func recvN(t *testing.T, c *Client, n int) []complex128 {
	t.Helper()
	var out []complex128
	deadline := time.Now().Add(10 * time.Second)
	if err := c.SetRecvDeadline(deadline); err != nil {
		t.Fatal(err)
	}
	defer c.SetRecvDeadline(time.Time{})
	for len(out) < n {
		blk, err := c.Recv()
		if err != nil {
			t.Fatalf("recv after %d of %d samples: %v", len(out), n, err)
		}
		out = append(out, blk...)
	}
	return out[:n]
}

func TestHubMixesTwoTransmitters(t *testing.T) {
	h := startHub(t, HubConfig{BlockSize: 256})
	addr := h.Addr().String()

	rx, err := DialRx(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx1, err := DialTx(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx1.Close()
	tx2, err := DialTx(addr, -20) // amplitude 0.1
	if err != nil {
		t.Fatal(err)
	}
	defer tx2.Close()

	a := make([]complex128, 256)
	b := make([]complex128, 256)
	for i := range a {
		a[i] = 1
		b[i] = 1i
	}
	if err := tx1.Send(a); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Send(b); err != nil {
		t.Fatal(err)
	}
	// Mixed = a + 0.1*b within at most two blocks: the hub mixes whenever
	// any queue is non-empty, so either burst may land alone in the first
	// block and the other in the next. Integrate: tx1 contributes 256 on I
	// and tx2 25.6 on Q, and the second block is read whenever either sum
	// is still short.
	var sumI, sumQ float64
	add := func(block []complex128) {
		for _, v := range block {
			sumI += real(v)
			sumQ += imag(v)
		}
	}
	short := func() bool { return math.Abs(sumI-256) > 1 || math.Abs(sumQ-25.6) > 1 }
	add(recvN(t, rx, 256))
	if short() {
		add(recvN(t, rx, 256))
	}
	if short() {
		t.Fatalf("mixed sums I=%v Q=%v, want 256 / 25.6", sumI, sumQ)
	}
}

func TestHubAddsNoise(t *testing.T) {
	h := startHub(t, HubConfig{BlockSize: 1024, NoiseVar: 0.25, Seed: 7})
	addr := h.Addr().String()
	rx, err := DialRx(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := DialTx(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if err := tx.Send(make([]complex128, 1<<14)); err != nil { // silence
		t.Fatal(err)
	}
	got := recvN(t, rx, 1<<14)
	if p := dsp.Power(got); math.Abs(p-0.25)/0.25 > 0.1 {
		t.Fatalf("noise floor %v, want 0.25", p)
	}
}

func TestHubRejectsBadHandshake(t *testing.T) {
	h := startHub(t, HubConfig{BlockSize: 64})
	if _, err := dial(h.Addr().String(), "HELLO world"); err == nil {
		t.Fatal("bad handshake should be rejected")
	}
	if _, err := dial(h.Addr().String(), "IQHUB spectator"); err == nil {
		t.Fatal("unknown role should be rejected")
	}
}

func TestHubConfigValidation(t *testing.T) {
	if _, err := NewHub("127.0.0.1:0", HubConfig{NoiseVar: -1}); err == nil {
		t.Fatal("negative noise should be rejected")
	}
	if _, err := NewHub("127.0.0.1:0", HubConfig{BlockSize: MaxBlock + 1}); err == nil {
		t.Fatal("oversized block should be rejected")
	}
}

// End to end: a full BHSS frame through the hub over real TCP, decoded on
// the receive side — the networked equivalent of the coax testbed.
func TestBHSSBurstThroughHub(t *testing.T) {
	h := startHub(t, HubConfig{BlockSize: 2048, NoiseVar: 0.001, Seed: 3})
	addr := h.Addr().String()

	rx, err := DialRx(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := DialTx(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	cfg := core.DefaultConfig(99)
	cfg.Sync = core.PreambleSync // burst position in the stream is unknown
	sender, err := core.NewTransmitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := core.NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("over the wire, over the air")
	burst, err := sender.EncodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Send(burst.Samples); err != nil {
		t.Fatal(err)
	}
	// Collect the mixed stream covering the whole burst. The hub emits
	// ceil(len/block) blocks, so exactly len samples are always
	// available; asking for more than the ceil-padding would block.
	capture := recvN(t, rx, len(burst.Samples))
	got, stats, err := receiver.DecodeBurst(capture)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
	if stats.AcquisitionOffset != 0 {
		t.Fatalf("odd acquisition offset %d", stats.AcquisitionOffset)
	}
}

func TestFloat32QuantizationSmall(t *testing.T) {
	// The wire format stores float32; round-trip error must be tiny
	// relative to the signal.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	x := make([]complex128, 1000)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)*0.1), math.Cos(float64(i)*0.17))
	}
	if err := w.WriteBlock(x); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadBlock()
	if err != nil {
		t.Fatal(err)
	}
	diff := make([]complex128, len(x))
	for i := range x {
		diff[i] = got[i] - x[i]
	}
	if snr := dsp.Power(x) / dsp.Power(diff); snr < 1e12 {
		t.Fatalf("quantization SNR %v too low", snr)
	}
}
