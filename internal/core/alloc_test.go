package core

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"bhss/internal/alloctest"
	"bhss/internal/dsss"
	"bhss/internal/frame"
	"bhss/internal/obs"
	"bhss/internal/prng"
)

// excisionSegment synthesizes the canonical excision scenario: a weak noise
// floor under a strong in-band tone, deterministic so every call takes the
// same path.
func excisionSegment(sps int) []complex128 {
	seg := make([]complex128, 16384)
	toneSegment(seg, prng.New(9), 0.5/float64(sps), 30)
	return seg
}

// toneSegment fills seg with a weak noise floor under a tone of the given
// frequency (cycles/sample) and amplitude.
func toneSegment(seg []complex128, src *prng.Source, freq, amp float64) {
	for i := range seg {
		th := 2 * math.Pi * freq * float64(i)
		seg[i] = src.ComplexNorm()*complex(0.1, 0) + complex(amp*math.Cos(th), amp*math.Sin(th))
	}
}

// TestHotPathZeroAlloc asserts the steady-state zero-allocation contract of
// the receiver's per-hop hot path: spectrum estimation plus excision-filter
// selection (estimateHop) and filtering (filterHop). The first call builds
// the notch convolver for the hop's PSD size and grows the receiver
// scratch; every call after that must allocate nothing — with and without a
// metrics pipeline attached, since obs recording rides inside the hot path —
// including when the jammer moves and changes level on every hop.
func TestHotPathZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name     string
		observer *obs.Pipeline
	}{
		{"unobserved", nil},
		{"observed", obs.NewPipeline()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReceiver(DefaultConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			if tc.observer != nil {
				r.SetObserver(tc.observer)
			}
			sps := r.spsTab[len(r.spsTab)-1]
			seg := excisionSegment(sps)

			decision, ctx, _ := r.estimateHop(seg, sps)
			if decision == FilterNone {
				t.Fatalf("synthetic jammer not detected; the hot path under test never runs")
			}
			if _, err := r.filterHop(seg, sps, decision, ctx); err != nil {
				t.Fatal(err)
			}

			alloctest.AssertZero(t, "Receiver.estimateHop", func() {
				_, _, _ = r.estimateHop(seg, sps)
			})
			alloctest.AssertZero(t, "Receiver.filterHop+estimateHop", func() {
				d, c, _ := r.estimateHop(seg, sps)
				if _, err := r.filterHop(seg, sps, d, c); err != nil {
					t.Fatal(err)
				}
			})

			// A non-stationary jammer: every call sees an in-band tone of a
			// new frequency and level, so the notch design changes every hop.
			moving := make([]complex128, len(seg))
			src := prng.New(10)
			calls, missed := 0, 0
			alloctest.AssertZero(t, "Receiver.filterHop+estimateHop, moving tone", func() {
				calls++
				u := math.Mod(float64(calls)*0.6180339887498949, 1)
				v := math.Mod(float64(calls)*0.7548776662466927, 1)
				freq := (1.2*u - 0.6) / float64(sps)
				toneSegment(moving, src, freq, 10+30*v)
				d, c, _ := r.estimateHop(moving, sps)
				if d != FilterExcision {
					missed++
				}
				if _, err := r.filterHop(moving, sps, d, c); err != nil {
					t.Fatal(err)
				}
			})
			if missed > 0 {
				t.Fatalf("%d of %d moving-tone hops did not take the excision branch", missed, calls)
			}
			if tc.observer != nil {
				snap := tc.observer.SnapshotLight()
				var estimated int64
				for _, h := range snap.Histograms {
					if h.Name == "stage.rx.estimate_ns" {
						estimated = h.Count
					}
				}
				if estimated == 0 {
					t.Fatal("observer attached but stage.rx.estimate_ns never recorded")
				}
			}
		})
	}
}

// TestPreambleSyncDecodeReusesCapture pins the PreambleSync decode's reuse
// of its capture-sized buffers: once warm, the bytes a decode allocates do
// not grow with the capture. Appending the burst's length in silence to the
// capture must add less than half a copy of those samples; a decode that
// copies the capture from the burst start adds a whole copy. The per-burst
// preamble correlator still allocates, by template length.
func TestPreambleSyncDecodeReusesCapture(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Sync = PreambleSync
	tx, rx := mustPair(t, cfg)
	payload := bytes.Repeat([]byte("bhss"), 8)
	burst, err := tx.EncodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	capture := func(trailing int) []complex128 {
		c := make([]complex128, 500+len(burst.Samples)+trailing)
		copy(c[500:], burst.Samples)
		return c
	}
	short, long := capture(0), capture(len(burst.Samples))
	decode := func(c []complex128) {
		rx.frame = 0 // both captures carry frame 0
		got, _, err := rx.DecodeBurst(c)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("decode: %q, %v", got, err)
		}
	}
	decode(long) // grows the receiver's scratch to the longer capture
	bytesPerDecode := func(c []complex128) int64 {
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			decode(c)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	shortBytes, longBytes := bytesPerDecode(short), bytesPerDecode(long)
	extra := int64(len(long)-len(short)) * 16
	if longBytes-shortBytes >= extra/2 {
		t.Fatalf("a warm decode allocates %d bytes for a %d-sample capture and %d for one %d samples longer: it copies the capture",
			shortBytes, len(short), longBytes, len(long)-len(short))
	}
}

// TestDecodeBurstStatsReuse pins the RxStats recycling contract: DecodeBurst
// hands back the receiver's embedded stats value every time instead of
// allocating a fresh one per burst, and the Hops backing array survives the
// Reset between bursts.
func TestDecodeBurstStatsReuse(t *testing.T) {
	cfg := DefaultConfig(11)
	tx, rx := mustPair(t, cfg)
	payload := []byte("stats reuse")

	// Tx and rx walk the hop sequence in lockstep, one frame per burst, so
	// each decode needs a fresh frame.
	frame := func() []complex128 {
		burst, err := tx.EncodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		return burst.Samples
	}

	_, s1, err := rx.DecodeBurst(frame())
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Hops) == 0 {
		t.Fatal("no hop reports recorded")
	}
	hops1 := &s1.Hops[0]

	_, s2, err := rx.DecodeBurst(frame())
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("DecodeBurst allocated a fresh RxStats: %p then %p", s1, s2)
	}
	if &s2.Hops[0] != hops1 {
		t.Fatal("Hops backing array reallocated on the second burst")
	}

	// The caller-supplied variant must honor the same recycling contract.
	var own RxStats
	if _, err := rx.DecodeBurstInto(&own, frame()); err != nil {
		t.Fatal(err)
	}
	if len(own.Hops) != len(s2.Hops) {
		t.Fatalf("DecodeBurstInto recorded %d hops, DecodeBurst %d", len(own.Hops), len(s2.Hops))
	}
	ownHops := &own.Hops[0]
	own.Reset()
	if _, err := rx.DecodeBurstInto(&own, frame()); err != nil {
		t.Fatal(err)
	}
	if &own.Hops[0] != ownHops {
		t.Fatal("caller-supplied RxStats reallocated Hops after Reset")
	}
}

// TestDecodeObserverParity asserts that attaching a metrics pipeline never
// perturbs the DSP, in both sync modes: payload bytes and every RxStats field
// must be identical with the observer on and off, and the observer must
// actually have counted the burst. A receiver rebuilds the PreambleSync
// template with the transmitter's modulator, and that must not be recorded
// as transmitter work.
func TestDecodeObserverParity(t *testing.T) {
	for _, sync := range []SyncMode{IdealSync, PreambleSync} {
		cfg := DefaultConfig(21)
		cfg.Sync = sync
		payload := []byte("observer parity")
		tx, err := NewTransmitter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		burst, err := tx.EncodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		capture := burst.Samples
		if sync == PreambleSync {
			capture = append(make([]complex128, 300), burst.Samples...)
		}

		plain, err := NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotPlain, statsPlain, err := plain.DecodeBurst(capture)
		if err != nil {
			t.Fatal(err)
		}

		observed, err := NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		met := obs.NewPipeline()
		observed.SetObserver(met)
		gotObs, statsObs, err := observed.DecodeBurst(capture)
		if err != nil {
			t.Fatal(err)
		}

		if string(gotPlain) != string(payload) || string(gotObs) != string(payload) {
			t.Fatalf("sync %d: payload mismatch: plain %q, observed %q", sync, gotPlain, gotObs)
		}
		if !reflect.DeepEqual(statsPlain, statsObs) {
			t.Fatalf("sync %d: observer perturbed stats:\nplain    %+v\nobserved %+v", sync, statsPlain, statsObs)
		}

		if got := met.Rx.Bursts.Load(); got != 1 {
			t.Fatalf("sync %d: rx.bursts = %d, want 1", sync, got)
		}
		if got := met.Rx.Decoded.Load(); got != 1 {
			t.Fatalf("sync %d: rx.decoded = %d, want 1", sync, got)
		}
		if got := met.Rx.Hops.Load(); got != int64(len(statsObs.Hops)) {
			t.Fatalf("sync %d: rx.hops = %d, want %d", sync, got, len(statsObs.Hops))
		}
		var decisions int64
		for i := range met.Rx.Decision {
			decisions += met.Rx.Decision[i].Load()
		}
		if decisions != int64(len(statsObs.Hops)) {
			t.Fatalf("sync %d: decision counters sum to %d, want %d", sync, decisions, len(statsObs.Hops))
		}
		for _, st := range []obs.Stage{obs.StageTxEncode, obs.StageTxSpread, obs.StageTxModulate} {
			if n := met.StageNS[st].Count(); n != 0 {
				t.Fatalf("sync %d: a receiver-only pipeline recorded %d transmitter stage %d spans", sync, n, st)
			}
		}
	}
}

// TestLinkEndAllocs pins each link end's allocations per frame once warm.
// Both ends key a frame by reseeding the hop source and the spreader they
// keep, and the frame codec builds only the slice it returns, so a warm
// EncodeFrameInto into a large enough buffer allocates only the Burst, its
// Segments and frame.Encode's symbols, and a warm IdealSync DecodeBurst only
// frame.Decode's payload, with or without the carrier loop: the receiver
// builds the loop once and resets it per burst, and the coarse CFO
// estimator works in receiver scratch.
func TestLinkEndAllocs(t *testing.T) {
	const encodeAllocs, decodeAllocs = 3, 1
	for _, tracking := range []bool{false, true} {
		cfg := DefaultConfig(1)
		cfg.TrackingLoops = tracking
		tx, rx := mustPair(t, cfg)
		payload := bytes.Repeat([]byte("alloc pin "), 4)
		worst := frame.EncodedSymbols(len(payload)) * dsss.ComplexChipsPerSymbol * slices.Max(tx.spsTab)
		buf := make([]complex128, 0, worst)
		encode := func() {
			if _, err := tx.EncodeFrameInto(buf, payload); err != nil {
				t.Fatal(err)
			}
		}
		encode()
		if n := testing.AllocsPerRun(50, encode); n > encodeAllocs {
			t.Fatalf("tracking %v: a warm EncodeFrameInto allocates %v times, want at most %d", tracking, n, encodeAllocs)
		}

		burst, err := tx.EncodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		fr := tx.FrameCounter() - 1
		decode := func() {
			rx.frame = fr
			if got, _, err := rx.DecodeBurst(burst.Samples); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("tracking %v: decode: %q, %v", tracking, got, err)
			}
		}
		decode()
		if n := testing.AllocsPerRun(50, decode); n > decodeAllocs {
			t.Fatalf("tracking %v: a warm DecodeBurst allocates %v times, want at most %d", tracking, n, decodeAllocs)
		}
	}
}
