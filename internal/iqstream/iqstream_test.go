package iqstream

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"bhss/internal/core"
	"bhss/internal/dsp"
	"bhss/internal/dsp/simd"
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

	rx, err := DialRxLink(addr, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx1, err := DialTxLink(addr, 0, LinkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tx1.Close()
	tx2, err := DialTxLink(addr, -20, LinkOpts{}) // amplitude 0.1
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

// wireSpecials are the components where the float32 wire conversion has an
// edge: signed zeros and infinities, quiet and signalling NaNs with
// payloads, overflow past MaxFloat32 (and the halfway case that rounds to
// Inf), float32 subnormals and the ties of their rounding, ties to even in
// the normal range and float64 subnormals. In 17 samples, so every length
// from 0 to 17 runs every tail of the codec kernels.
var wireSpecials = []complex128{
	complex(0, math.Copysign(0, -1)),
	complex(math.Inf(1), math.Inf(-1)),
	complex(math.Float64frombits(0x7ff8000000000000), math.Float64frombits(0xfffc000020000000)), // quiet NaNs
	complex(math.Float64frombits(0x7ff4000000000000), math.Float64frombits(0xfff0000020000000)), // signalling NaNs
	complex(1e39, -3.5e38),
	complex(0x1.ffffffp127, -math.Nextafter(0x1.ffffffp127, 0)), // the tie rounds to Inf
	complex(math.MaxFloat64, -math.MaxFloat32),
	complex(1e-40, -0x1p-149),
	complex(0x1p-150, -0x1.8p-150),
	complex(3*0x1p-150, -0x1p-151),
	complex(0x1p-126, -math.Nextafter(0x1p-126, 0)),
	complex(1+0x1p-24, 1+3*0x1p-24),
	complex(-math.Nextafter(1+0x1p-24, 2), math.Nextafter(1+0x1p-24, 0)),
	complex(5e-324, -2.2250738585072014e-308),
	complex(0.1, -2.5e-3),
	complex(1.0/3, -math.Pi),
	complex(65504.00390625, -16777217),
}

// wireSpecialsHex is WriteBlock's payload for wireSpecials: per sample,
// float32(real) then float32(imag), little-endian.
const wireSpecialsHex = "0000000000000080" +
	"0000807f000080ff" +
	"0000c07f0100e0ff" +
	"0000e07f0100c0ff" +
	"0000807f000080ff" +
	"0000807fffff7fff" +
	"0000807fffff7fff" +
	"c216010001000080" +
	"0000000001000080" +
	"0200000000000080" +
	"0000800000008080" +
	"0000803f0200803f" +
	"010080bf0000803f" +
	"0000000000000080" +
	"cdcccc3d0ad723bb" +
	"abaaaa3edb0f49c0" +
	"01e07f47000080cb"

// TestWriteBlockBytes pins the exact wire bytes of the conversion edge
// cases, for every length from 0 to 17 taken from either end of the
// table, so each special value passes through every kernel tail.
func TestWriteBlockBytes(t *testing.T) {
	payload, err := hex.DecodeString(wireSpecialsHex)
	if err != nil {
		t.Fatal(err)
	}
	n := len(wireSpecials)
	for k := 0; k <= n; k++ {
		for _, lo := range []int{0, n - k} {
			var buf bytes.Buffer
			if err := NewWriter(&buf).WriteBlock(wireSpecials[lo : lo+k]); err != nil {
				t.Fatal(err)
			}
			want := binary.LittleEndian.AppendUint32([]byte("IQS1"), uint32(k))
			want = append(want, payload[8*lo:8*(lo+k)]...)
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("WriteBlock(samples %d..%d) =\n%x, want\n%x (simd %v)", lo, lo+k, buf.Bytes(), want, simd.Active())
			}
		}
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
