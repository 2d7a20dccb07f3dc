//go:build !race

// The race detector's sync.Pool drops a random quarter of its Puts, so
// the hub's pooled mix buffers are counted only in a build without it.

package iqstream

import (
	"runtime"
	"testing"
)

// TestHubStreamAllocs pins the hub's steady-state block path at no
// allocations: one link streams 4,096-sample blocks with 16 in flight,
// as the benchmark's hub_link phase B does. The count covers the
// transmitting client, the hub and the receiving client's Recv.
func TestHubStreamAllocs(t *testing.T) {
	const blockLen, window, warm, blocks = 4096, 16, 256, 4096
	h := startHub(t, HubConfig{BlockSize: blockLen})
	addr := h.Addr().String()
	rx, err := DialRxLink(addr, LinkOpts{Link: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := DialTxLink(addr, 0, LinkOpts{Link: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	block := make([]complex128, blockLen)
	for i := range block {
		block[i] = complex(float64(i), -float64(i))
	}
	stream := func(n int) {
		for sent, got := 0, 0; got < n*blockLen; {
			for ; sent < n && sent*blockLen-got < window*blockLen; sent++ {
				if err := tx.Send(block); err != nil {
					t.Fatal(err)
				}
			}
			b, err := rx.Recv()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range b {
				if v != block[(got+i)%blockLen] {
					t.Fatalf("sample %d = %v, want %v", got+i, v, block[(got+i)%blockLen])
				}
			}
			got += len(b)
		}
	}
	stream(warm)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stream(blocks)
	runtime.ReadMemStats(&after)
	mallocs := float64(after.Mallocs-before.Mallocs) / blocks
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / blocks
	gcs := float64(after.NumGC-before.NumGC) * 1000 / blocks
	t.Logf("per block: %.2f mallocs, %.0f bytes; %.1f GCs per 1,000 blocks", mallocs, bytes, gcs)
	if mallocs > 0.1 || bytes > 1024 {
		t.Errorf("hub block path allocates %.2f objects and %.0f bytes per block, want <= 0.1 and <= 1 KiB", mallocs, bytes)
	}
}
