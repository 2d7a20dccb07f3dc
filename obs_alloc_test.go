package bhss

import "testing"

// linkThroughputAllocBudget is the PR-1 steady-state allocation budget of
// one encode+decode round trip (BenchmarkLinkThroughput's baseline).
// Attaching the metrics pipeline must not add a single allocation on top.
const linkThroughputAllocBudget = 40

// TestLinkThroughputAllocBudget runs the observed end-to-end link at steady
// state and fails if allocations per round trip regress above the unobserved
// baseline: the recording paths are atomics into preallocated structures and
// a fixed-size span ring, so observability is allocation-neutral.
func TestLinkThroughputAllocBudget(t *testing.T) {
	cfg := DefaultConfig(1)
	tx, err := NewTransmitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	met := NewObserver()
	tx.SetObserver(met)
	rx.SetObserver(met)
	payload := make([]byte, 32)

	roundTrip := func() {
		burst, err := tx.EncodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := rx.DecodeBurst(burst.Samples); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the filter, shape and FFT-plan caches out of the measurement.
	for i := 0; i < 3; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(20, roundTrip); avg > linkThroughputAllocBudget {
		t.Fatalf("observed link allocates %.1f/op, budget %d", avg, linkThroughputAllocBudget)
	}
}
