package frame

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0x00},
		{0xFF},
		[]byte("hello bandwidth hopping"),
		bytes.Repeat([]byte{0xA5}, MaxPayload),
	}
	for _, p := range payloads {
		syms, err := Encode(p)
		if err != nil {
			t.Fatalf("encode %v: %v", p, err)
		}
		if len(syms) != EncodedSymbols(len(p)) {
			t.Fatalf("symbol count %d, want %d", len(syms), EncodedSymbols(len(p)))
		}
		got, err := Decode(syms)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(got, p) && !(len(got) == 0 && len(p) == 0) {
			t.Fatalf("round trip: got %v, want %v", got, p)
		}
	}
}

func TestEncodeTooLong(t *testing.T) {
	if _, err := Encode(make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	syms, _ := Encode([]byte("abcdef"))
	for _, cut := range []int{0, 5, HeaderSymbols - 1, HeaderSymbols + 3, len(syms) - 1} {
		if _, err := Decode(syms[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecodeBadSFD(t *testing.T) {
	syms, _ := Encode([]byte("x"))
	syms[PreambleBytes*SymbolsPerByte] ^= 0x1 // corrupt SFD low nibble
	if _, err := Decode(syms); !errors.Is(err, ErrBadSFD) {
		t.Fatalf("err = %v, want ErrBadSFD", err)
	}
}

func TestDecodeBadCRC(t *testing.T) {
	syms, _ := Encode([]byte("payload"))
	syms[len(syms)-1] ^= 0x3 // corrupt CRC
	if _, err := Decode(syms); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("err = %v, want ErrBadCRC", err)
	}
}

func TestDecodeCorruptPayloadCaughtByCRC(t *testing.T) {
	syms, _ := Encode([]byte("payload!"))
	syms[HeaderSymbols+1] ^= 0x5
	if _, err := Decode(syms); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("err = %v, want ErrBadCRC", err)
	}
}

func TestDecodeBadSymbolValue(t *testing.T) {
	syms, _ := Encode([]byte("q"))
	syms[2] = 16
	if _, err := Decode(syms); !errors.Is(err, ErrBadSymbol) {
		t.Fatalf("err = %v, want ErrBadSymbol", err)
	}
}

// TestDecodeBadSymbolBeforeCRC: an out-of-range symbol in the payload or
// the CRC is ErrBadSymbol, reported ahead of the CRC comparison.
func TestDecodeBadSymbolBeforeCRC(t *testing.T) {
	good, _ := Encode([]byte("body"))
	for _, at := range []int{HeaderSymbols, HeaderSymbols + 7, len(good) - 1} {
		syms := append([]int(nil), good...)
		syms[at] = 16
		if _, err := Decode(syms); !errors.Is(err, ErrBadSymbol) {
			t.Fatalf("bad symbol at %d: err = %v, want ErrBadSymbol", at, err)
		}
	}
}

func TestDecodeBogusLengthByte(t *testing.T) {
	syms, _ := Encode(nil)
	// Overwrite length byte symbols with 0xFF (255 > MaxPayload).
	syms[(PreambleBytes+1)*SymbolsPerByte] = 0xF
	syms[(PreambleBytes+1)*SymbolsPerByte+1] = 0xF
	if _, err := Decode(syms); !errors.Is(err, ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/XMODEM ("123456789") = 0x31C3.
	if got := CRC16([]byte("123456789")); got != 0x31C3 {
		t.Fatalf("CRC16 = %#04x, want 0x31c3", got)
	}
	if CRC16(nil) != 0 {
		t.Fatal("CRC16 of empty should be 0")
	}
}

func TestCRC16DetectsSingleBitFlips(t *testing.T) {
	data := []byte("the quick brown fox")
	want := CRC16(data)
	for i := range data {
		for b := 0; b < 8; b++ {
			data[i] ^= 1 << b
			if CRC16(data) == want {
				t.Fatalf("bit flip at %d/%d undetected", i, b)
			}
			data[i] ^= 1 << b
		}
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > MaxPayload {
			data = data[:MaxPayload]
		}
		syms, err := Encode(data)
		if err != nil {
			return false
		}
		got, err := Decode(syms)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPreambleSymbolsAreZero(t *testing.T) {
	syms, _ := Encode([]byte("z"))
	for i := 0; i < PreambleBytes*SymbolsPerByte; i++ {
		if syms[i] != 0 {
			t.Fatalf("preamble symbol %d = %d, want 0", i, syms[i])
		}
	}
}
