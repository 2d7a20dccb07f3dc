package main

import (
	"io"
	"testing"

	"bhss/internal/core"
	"bhss/internal/impair"
	"bhss/internal/iqstream"
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

// TestReadEventsOwnStorage: a receive source may hand back the same buffer
// on every call, valid only until the next one, as the hub client does.
// Every event must keep the samples of its own block, with or without a
// front end, and a stream gap passes through as a marker.
func TestReadEventsOwnStorage(t *testing.T) {
	for _, spec := range []string{"", "quant=12"} {
		front, err := impair.NewFromSpec(spec, 20, 1)
		if err != nil {
			t.Fatal(err)
		}
		const blocks = 4
		buf := make([]complex128, 16)
		calls := 0
		recv := func() ([]complex128, error) {
			calls++
			switch {
			case calls == 2:
				return nil, iqstream.ErrStreamGap
			case calls > blocks+1:
				return nil, io.EOF
			}
			for i := range buf {
				buf[i] = complex(float64(calls)/8, float64(i)/64)
			}
			return buf, nil
		}
		events := make(chan rxEvent, blocks+1)
		readEvents(recv, front, events)
		var got []rxEvent
		for ev := range events {
			got = append(got, ev)
		}
		if len(got) != blocks+1 || !got[1].gap {
			t.Fatalf("front %q: %d events (gap at 1: %v), want %d blocks and a gap", spec, len(got), len(got) > 1 && got[1].gap, blocks)
		}
		for k, ev := range got {
			if ev.gap {
				continue
			}
			for i, v := range ev.block {
				want := complex(float64(k+1)/8, float64(i)/64)
				if d := v - want; real(d)*real(d)+imag(d)*imag(d) > 1e-4 {
					t.Fatalf("front %q: event %d sample %d = %v, want about %v: block storage was shared", spec, k, i, v, want)
				}
			}
		}
	}
}
