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

// appendSymbols appends the symbols of data to out, low nibble first.
func appendSymbols(out []int, data []byte) []int {
	for _, b := range data {
		out = append(out, int(b&0x0F), int(b>>4))
	}
	return out
}

// packSymbols fills dst from the first len(dst)*SymbolsPerByte symbols, low
// nibble first. It returns ErrBadSymbol if one is out of range.
func packSymbols(dst []byte, symbols []int) error {
	for i := range dst {
		lo, hi := symbols[2*i], symbols[2*i+1]
		if lo < 0 || lo > 15 || hi < 0 || hi > 15 {
			return ErrBadSymbol
		}
		dst[i] = byte(lo) | byte(hi)<<4
	}
	return nil
}

// Encode serializes a payload into the symbol stream
// preamble | SFD | length | payload | CRC16. It returns ErrTooLong for
// oversized payloads.
func Encode(payload []byte) ([]int, error) {
	if len(payload) > MaxPayload {
		return nil, ErrTooLong
	}
	header := [PreambleBytes + 2]byte{PreambleBytes: SFDByte, PreambleBytes + 1: byte(len(payload))}
	crc := CRC16(payload)
	fcs := [crcBytes]byte{byte(crc), byte(crc >> 8)}
	out := make([]int, 0, EncodedSymbols(len(payload)))
	out = appendSymbols(out, header[:])
	out = appendSymbols(out, payload)
	return appendSymbols(out, fcs[:]), nil
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
	var header [HeaderSymbols / SymbolsPerByte]byte
	if err := packSymbols(header[:], symbols); err != nil {
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
	payload := make([]byte, n)
	if err := packSymbols(payload, symbols[HeaderSymbols:]); err != nil {
		return nil, err
	}
	var fcs [crcBytes]byte
	if err := packSymbols(fcs[:], symbols[HeaderSymbols+n*SymbolsPerByte:]); err != nil {
		return nil, err
	}
	if uint16(fcs[0])|uint16(fcs[1])<<8 != CRC16(payload) {
		return nil, ErrBadCRC
	}
	return payload, nil
}
