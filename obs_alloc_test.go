package bhss

import "testing"

// linkThroughputAllocBudget is the steady-state allocation budget of one
// BenchmarkLinkThroughput round trip, observed or not.
const linkThroughputAllocBudget = 5

// TestLinkThroughputAllocBudget measures BenchmarkLinkThroughput's round
// trip (EncodeFrameInto into a reused buffer, then DecodeBurst) at steady
// state, with and without the metrics pipeline. It fails if either count
// exceeds the budget or if observing adds an allocation: the recording
// paths are atomics into preallocated structures and a fixed-size span
// ring, so observability is allocation-neutral. The per-frame count depends
// on which hops design an excision filter, so it is averaged over 100 round
// trips after warm-up.
func TestLinkThroughputAllocBudget(t *testing.T) {
	allocs := func(observe bool) float64 {
		cfg := DefaultConfig(1)
		tx, err := NewTransmitter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if observe {
			met := NewObserver()
			tx.SetObserver(met)
			rx.SetObserver(met)
		}
		payload := make([]byte, 32)
		var buf []complex128
		roundTrip := func() {
			burst, err := tx.EncodeFrameInto(buf[:0], payload)
			if err != nil {
				t.Fatal(err)
			}
			buf = burst.Samples
			if _, _, err := rx.DecodeBurst(burst.Samples); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the filter, shape and FFT-plan caches out of the measurement.
		for i := 0; i < 3; i++ {
			roundTrip()
		}
		return testing.AllocsPerRun(100, roundTrip)
	}
	plain, observed := allocs(false), allocs(true)
	t.Logf("link allocates %v/op unobserved, %v/op observed", plain, observed)
	if plain > linkThroughputAllocBudget || observed > linkThroughputAllocBudget {
		t.Fatalf("link allocates %v/op unobserved and %v/op observed, budget %d", plain, observed, linkThroughputAllocBudget)
	}
	if observed != plain {
		t.Fatalf("observing changes allocations: %v/op observed, %v/op unobserved", observed, plain)
	}
}
