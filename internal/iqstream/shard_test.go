package iqstream

import (
	"math"
	"testing"

	"bhss/internal/prng"
)

// TestMixPendingNoiseParity pins the mixer's bulk noise draw to the
// per-sample loop it replaced: silence mixed at NoiseVar 0.5 must equal,
// bit for bit, block[i] += ComplexNorm()·√NoiseVar drawn one sample at a
// time from the link's own Source, on link 0 and on a derived-seed link.
func TestMixPendingNoiseParity(t *testing.T) {
	const blockSize, blocks, seed = 256, 5, 11
	h := &Hub{cfg: HubConfig{BlockSize: blockSize, NoiseVar: 0.5, Seed: seed}}
	for _, id := range []uint32{0, 7} {
		q := &txQueue{gain: 1}
		q.push(make([]complex128, blocks*blockSize), DefaultMaxPending)
		lk := &link{
			id:    id,
			txs:   map[int]*txQueue{0: q},
			rxs:   map[int]*rxConn{0: {}},
			noise: prng.New(linkNoiseSeed(seed, id)),
		}
		sc := h.newMixScratch()
		ref := prng.New(linkNoiseSeed(seed, id))
		a := complex(math.Sqrt(0.5), 0)
		for b := 0; b < blocks; b++ {
			if !h.mixPending(lk, sc) {
				t.Fatalf("link %d block %d: nothing mixed", id, b)
			}
			for i, got := range sc.block {
				want := complex(0, 0)
				want += 0 * complex(q.gain, 0)
				want += ref.ComplexNorm() * a
				if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
					math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
					t.Fatalf("link %d block %d sample %d = %v, want %v", id, b, i, got, want)
				}
			}
		}
	}
}
