package main

import (
	"testing"

	"bhss/internal/core"
)

// TestDecodeWindowBackToBack: the hub streams bursts back to back, so one
// window can hold several. Every one of them decodes, in frame order, and
// the window is left empty.
func TestDecodeWindowBackToBack(t *testing.T) {
	cfg := core.DefaultConfig(42)
	cfg.Sync = core.PreambleSync
	tx, err := core.NewTransmitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := core.NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const bursts = 3
	window := make([]complex128, 300)
	for i := 0; i < bursts; i++ {
		b, err := tx.EncodeFrame([]byte("back to back"))
		if err != nil {
			t.Fatal(err)
		}
		window = append(window, b.Samples...)
	}
	s := &session{rx: rx, window: window}
	s.decodeWindow(true)
	if s.received != bursts || s.lost != 0 {
		t.Fatalf("received %d and lost %d of %d back-to-back bursts", s.received, s.lost, bursts)
	}
	if len(s.window) != 0 {
		t.Fatalf("%d samples left in the window after the last burst", len(s.window))
	}
}
