// Package iqstream moves complex baseband samples between processes: a
// compact binary block format over any io.Reader/Writer (typically TCP),
// plus the virtual-air hub that replaces the paper's coax-and-T-connector
// testbed (Figure 12). Transmitter, jammer and receiver each connect to the
// hub as network clients; the hub sums their sample streams with per-port
// gain, adds the channel's AWGN and broadcasts the mixture to receivers —
// sample-synchronous, like the physical combiner.
package iqstream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bhss/internal/dsp/simd"
)

// Magic opens every sample block.
var Magic = [4]byte{'I', 'Q', 'S', '1'}

// MaxBlock bounds the per-block sample count (16 MiB of payload).
const MaxBlock = 1 << 21

// Errors returned by the block codec.
var (
	ErrBadMagic  = errors.New("iqstream: bad block magic")
	ErrTooLarge  = errors.New("iqstream: block exceeds MaxBlock samples")
	ErrShortRead = errors.New("iqstream: truncated block")
)

// Writer serializes sample blocks to an underlying stream. It is not safe
// for concurrent use.
type Writer struct {
	w   *bufio.Writer
	buf []byte
}

// NewWriter returns a block writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// WriteBlock writes one block of samples (as float32 I/Q pairs) and flushes.
func (w *Writer) WriteBlock(samples []complex128) error {
	if err := w.writeBlockBuffered(samples); err != nil {
		return err
	}
	return w.w.Flush()
}

// writeBlockBuffered writes one block into the underlying buffered writer
// without flushing. Batched fan-out (the hub's receiver writers) queues
// several blocks and pays one Flush for all of them.
func (w *Writer) writeBlockBuffered(samples []complex128) error {
	if len(samples) > MaxBlock {
		return ErrTooLarge
	}
	need := 8 + len(samples)*8
	if cap(w.buf) < need {
		w.buf = make([]byte, need)
	}
	buf := w.buf[:need]
	copy(buf[:4], Magic[:])
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(samples)))
	simd.PackIQ32(buf[8:], samples)
	_, err := w.w.Write(buf)
	return err
}

// Flush forces buffered block bytes onto the underlying stream.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader deserializes sample blocks from an underlying stream. It is not
// safe for concurrent use.
type Reader struct {
	r      *bufio.Reader
	header [8]byte
	buf    []byte
	// block is ReadBlock's decode storage, reused from block to block.
	block []complex128
}

// NewReader returns a block reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// ReadBlock reads the next block into storage the Reader keeps: the block
// is valid only until the next read, so a caller that keeps samples past
// it copies them. io.EOF is returned unwrapped at a clean block boundary.
func (r *Reader) ReadBlock() ([]complex128, error) {
	header := r.header[:]
	if _, err := io.ReadFull(r.r, header[:1]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("iqstream: %w", err)
	}
	if _, err := io.ReadFull(r.r, header[1:]); err != nil {
		return nil, ErrShortRead
	}
	if header[0] != Magic[0] || header[1] != Magic[1] || header[2] != Magic[2] || header[3] != Magic[3] {
		return nil, ErrBadMagic
	}
	n := binary.LittleEndian.Uint32(header[4:8])
	if n > MaxBlock {
		return nil, ErrTooLarge
	}
	need := int(n) * 8
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	buf := r.buf[:need]
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return nil, ErrShortRead
	}
	if cap(r.block) < int(n) {
		r.block = make([]complex128, n)
	}
	out := r.block[:n]
	simd.UnpackIQ32(out, buf)
	return out, nil
}
