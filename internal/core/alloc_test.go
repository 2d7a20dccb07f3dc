package core

import (
	"math"
	"reflect"
	"testing"

	"bhss/internal/alloctest"
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
// perturbs the DSP: payload bytes and every RxStats field must be identical
// with the observer on and off, and the observer must actually have counted
// the burst.
func TestDecodeObserverParity(t *testing.T) {
	cfg := DefaultConfig(21)
	payload := []byte("observer parity")
	tx, err := NewTransmitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := tx.EncodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}

	plain, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotPlain, statsPlain, err := plain.DecodeBurst(burst.Samples)
	if err != nil {
		t.Fatal(err)
	}

	observed, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewPipeline()
	observed.SetObserver(met)
	gotObs, statsObs, err := observed.DecodeBurst(burst.Samples)
	if err != nil {
		t.Fatal(err)
	}

	if string(gotPlain) != string(payload) || string(gotObs) != string(payload) {
		t.Fatalf("payload mismatch: plain %q, observed %q", gotPlain, gotObs)
	}
	if !reflect.DeepEqual(statsPlain, statsObs) {
		t.Fatalf("observer perturbed stats:\nplain    %+v\nobserved %+v", statsPlain, statsObs)
	}

	if got := met.Rx.Bursts.Load(); got != 1 {
		t.Fatalf("rx.bursts = %d, want 1", got)
	}
	if got := met.Rx.Decoded.Load(); got != 1 {
		t.Fatalf("rx.decoded = %d, want 1", got)
	}
	if got := met.Rx.Hops.Load(); got != int64(len(statsObs.Hops)) {
		t.Fatalf("rx.hops = %d, want %d", got, len(statsObs.Hops))
	}
	var decisions int64
	for i := range met.Rx.Decision {
		decisions += met.Rx.Decision[i].Load()
	}
	if decisions != int64(len(statsObs.Hops)) {
		t.Fatalf("decision counters sum to %d, want %d", decisions, len(statsObs.Hops))
	}
}
