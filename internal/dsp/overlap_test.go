package dsp

import (
	"fmt"
	"testing"
)

func TestOverlapSaveFullMatchesConvolve(t *testing.T) {
	for _, tc := range []struct{ nx, nh int }{
		{1, 1}, {16, 4}, {100, 31}, {1000, 129}, {257, 64},
	} {
		x := randSignal(tc.nx, uint64(tc.nx)+1)
		h := randSignal(tc.nh, uint64(tc.nh)+2)
		want := Convolve(x, h)
		got := NewOverlapSave(h).ApplyFull(nil, x)
		if len(got) != len(want) {
			t.Fatalf("nx=%d nh=%d: len %d want %d", tc.nx, tc.nh, len(got), len(want))
		}
		for k := range want {
			if !cEq(got[k], want[k], 1e-9*float64(tc.nx+tc.nh)) {
				t.Fatalf("nx=%d nh=%d sample %d: got %v want %v", tc.nx, tc.nh, k, got[k], want[k])
			}
		}
	}
}

func TestOverlapSaveSameMatchesFullCenter(t *testing.T) {
	x := randSignal(300, 5)
	h := randSignal(33, 6)
	full := NewOverlapSave(h).ApplyFull(nil, x)
	same := NewOverlapSave(h).ApplySame(nil, x)
	if len(same) != len(x) {
		t.Fatalf("same length %d want %d", len(same), len(x))
	}
	start := (len(h) - 1) / 2
	for k := range same {
		if !cEq(same[k], full[start+k], 1e-9*float64(len(x))) {
			t.Fatalf("sample %d: got %v want %v", k, same[k], full[start+k])
		}
	}
}

func TestNewOverlapSaveSizeValidates(t *testing.T) {
	h := make([]complex128, 16)
	h[0] = 1
	if _, err := NewOverlapSaveSize(h, 24); err == nil {
		t.Fatal("expected error for non-pow2 FFT length")
	}
	if _, err := NewOverlapSaveSize(h, 16); err == nil {
		t.Fatal("expected error for FFT length < 2*len(taps)")
	}
	if _, err := NewOverlapSaveSize(h, 32); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := NewOverlapSaveSize(nil, 32); err == nil {
		t.Fatal("expected error for empty taps")
	}
}

// TestOverlapSaveSetTapsMatchesFresh pins SetTaps to construction: a
// convolver that held other taps first transforms and filters bit for bit
// like a fresh NewOverlapSave of the new taps.
func TestOverlapSaveSetTapsMatchesFresh(t *testing.T) {
	x := randSignal(5000, 11)
	for _, nh := range []int{1, 33, 255} {
		reused := NewOverlapSave(randSignal(nh, 12))
		_ = reused.ApplySame(nil, x) // dirty the block scratch too
		h := randSignal(nh, 13)
		reused.SetTaps(h)
		fresh := NewOverlapSave(h)
		name := fmt.Sprintf("%d taps", nh)
		sameBits(t, name+" transform", reused.hFT, fresh.hFT)
		sameBits(t, name+" output", reused.ApplySame(nil, x), fresh.ApplySame(nil, x))
	}
}

func TestOverlapSaveSetTapsRejectsOtherLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetTaps with a different tap count did not panic")
		}
	}()
	NewOverlapSave(randSignal(16, 1)).SetTaps(randSignal(17, 2))
}
