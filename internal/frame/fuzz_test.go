package frame

import (
	"bytes"
	"testing"
)

// FuzzDecode throws arbitrary symbol streams at the frame parser: it must
// never panic, and whenever it accepts a frame the payload must re-encode
// to a prefix-consistent symbol stream.
func FuzzDecode(f *testing.F) {
	good, _ := Encode([]byte("seed corpus payload"))
	buf := make([]byte, len(good))
	for i, s := range good {
		buf[i] = byte(s)
	}
	f.Add(buf)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x0F}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		symbols := make([]int, len(raw))
		for i, b := range raw {
			symbols[i] = int(b) // may be out of the 0..15 range on purpose
		}
		payload, err := Decode(symbols)
		if err != nil {
			return
		}
		// An accepted frame must round-trip.
		re, err := Encode(payload)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if len(re) > len(symbols) {
			t.Fatalf("re-encoded frame longer than the accepted stream")
		}
		// The preamble is deliberately unauthenticated (only SFD and CRC
		// gate acceptance), so compare from the SFD onward.
		for i := PreambleBytes * SymbolsPerByte; i < len(re); i++ {
			if re[i] != symbols[i] {
				t.Fatalf("re-encoded symbol %d differs", i)
			}
		}
	})
}
