// Package frame implements the over-the-air frame structure of the BHSS
// prototype, which the paper bases on IEEE 802.15.4 (§6.1): a preamble used
// for acquisition and synchronization, a start-of-frame delimiter (SFD), a
// length field, the payload, and a CRC that decides packet delivery (the
// paper counts a packet as lost "when the CRC does not match the content").
//
// Frames are serialized to a stream of 4-bit symbols (one hex digit per
// symbol, low nibble first as in 802.15.4); the DSSS layer spreads each
// symbol to 32 chips.
package frame

import (
	"errors"
	"fmt"
)

// Frame layout constants.
const (
	// PreambleBytes zero bytes open every frame (802.15.4 uses 4).
	PreambleBytes = 4
	// SFDByte is the start-of-frame delimiter value (802.15.4's 0xA7).
	SFDByte = 0xA7
	// MaxPayload is the maximum payload size in bytes (one length byte,
	// 802.15.4-compatible).
	MaxPayload = 127
	// SymbolsPerByte is two: each byte carries two 4-bit symbols.
	SymbolsPerByte = 2
	// HeaderSymbols counts preamble + SFD + length symbols.
	HeaderSymbols = (PreambleBytes + 2) * SymbolsPerByte
	// crcBytes is the FCS length (CRC-16-CCITT).
	crcBytes = 2
)

// Decoding errors.
var (
	ErrTooLong   = errors.New("frame: payload exceeds MaxPayload")
	ErrTruncated = errors.New("frame: symbol stream truncated")
	ErrBadSFD    = errors.New("frame: start-of-frame delimiter mismatch")
	ErrBadCRC    = errors.New("frame: CRC mismatch")
	ErrBadSymbol = errors.New("frame: symbol value out of range")
)

// CRC16 computes the CRC-16-CCITT (polynomial 0x1021, init 0x0000, as used
// by the 802.15.4 FCS) over data.
func CRC16(data []byte) uint16 {
	var crc uint16
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// BytesToSymbols expands bytes to 4-bit symbols, low nibble first.
func BytesToSymbols(data []byte) []int {
	out := make([]int, 0, len(data)*SymbolsPerByte)
	for _, b := range data {
		out = append(out, int(b&0x0F), int(b>>4))
	}
	return out
}

// SymbolsToBytes packs 4-bit symbols (low nibble first) back into bytes.
// It returns an error if a symbol is out of range or the count is odd.
func SymbolsToBytes(symbols []int) ([]byte, error) {
	if len(symbols)%SymbolsPerByte != 0 {
		return nil, ErrTruncated
	}
	out := make([]byte, len(symbols)/SymbolsPerByte)
	for i := range out {
		lo, hi := symbols[2*i], symbols[2*i+1]
		if lo < 0 || lo > 15 || hi < 0 || hi > 15 {
			return nil, ErrBadSymbol
		}
		out[i] = byte(lo) | byte(hi)<<4
	}
	return out, nil
}

// Encode serializes a payload into the symbol stream
// preamble | SFD | length | payload | CRC16. It returns ErrTooLong for
// oversized payloads.
func Encode(payload []byte) ([]int, error) {
	if len(payload) > MaxPayload {
		return nil, ErrTooLong
	}
	raw := make([]byte, 0, PreambleBytes+2+len(payload)+crcBytes)
	for i := 0; i < PreambleBytes; i++ {
		raw = append(raw, 0x00)
	}
	raw = append(raw, SFDByte, byte(len(payload)))
	raw = append(raw, payload...)
	crc := CRC16(payload)
	raw = append(raw, byte(crc&0xFF), byte(crc>>8))
	return BytesToSymbols(raw), nil
}

// EncodedSymbols returns the total number of symbols Encode produces for a
// payload of n bytes.
func EncodedSymbols(n int) int {
	return (PreambleBytes + 2 + n + crcBytes) * SymbolsPerByte
}

// Decode parses a symbol stream produced by Encode (starting exactly at the
// first preamble symbol) and returns the payload. It validates the SFD and
// the CRC.
func Decode(symbols []int) ([]byte, error) {
	if len(symbols) < HeaderSymbols {
		return nil, ErrTruncated
	}
	header, err := SymbolsToBytes(symbols[:HeaderSymbols])
	if err != nil {
		return nil, err
	}
	if header[PreambleBytes] != SFDByte {
		return nil, ErrBadSFD
	}
	n := int(header[PreambleBytes+1])
	if n > MaxPayload {
		return nil, fmt.Errorf("%w: length byte %d", ErrTooLong, n)
	}
	need := HeaderSymbols + (n+crcBytes)*SymbolsPerByte
	if len(symbols) < need {
		return nil, ErrTruncated
	}
	body, err := SymbolsToBytes(symbols[HeaderSymbols:need])
	if err != nil {
		return nil, err
	}
	payload := body[:n]
	crcGot := uint16(body[n]) | uint16(body[n+1])<<8
	if crcGot != CRC16(payload) {
		return nil, ErrBadCRC
	}
	out := make([]byte, n)
	copy(out, payload)
	return out, nil
}
