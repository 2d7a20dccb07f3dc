// Package dsss implements the direct-sequence spreading layer: 4-bit symbols
// are spread to 32 chips from the 16-ary quasi-orthogonal table (16 complex
// QPSK chips), multiplied by a seed-derived ±1 scrambling overlay so the
// transmitted chip stream is unpredictable to the jammer, and recovered by a
// bank of 16 correlators that picks the symbol with the highest correlation
// (§6.1 of the paper).
//
// The spreading factor is 8 chips per bit (32 chips / 4 bits), a processing
// gain of 9 dB, matching the paper's prototype.
package dsss

import (
	"fmt"
	"sync"

	"bhss/internal/pn"
)

// ComplexChipsPerSymbol is the number of complex (QPSK) chips per 4-bit
// symbol: 32 binary chips pair into 16.
const ComplexChipsPerSymbol = pn.ChipsPerSymbol / 2

// The chip table is a pure function of the 802.15.4 base sequence, so every
// spreader and despreader in the process shares one read-only complex-row
// copy instead of rebuilding it per instance (construction used to dominate
// the decoder's allocation profile).
var (
	sharedRowsOnce sync.Once
	sharedRowsVal  [][]complex128
)

func sharedRows() [][]complex128 {
	sharedRowsOnce.Do(func() {
		sharedRowsVal = pn.NewChipTable().ComplexTable()
	})
	return sharedRowsVal
}

// Spreader maps symbol streams to scrambled complex chip streams. The
// scrambler state advances across calls, so one Spreader instance must see
// the symbols in transmission order.
type Spreader struct {
	rows [][]complex128
	scr  *pn.Scrambler
}

// NewSpreader returns a spreader whose scrambling overlay derives from the
// pre-shared seed.
func NewSpreader(seed uint64) *Spreader {
	return &Spreader{rows: sharedRows(), scr: pn.NewScrambler(seed)}
}

// Reset restarts the spreader's scrambler from seed, leaving it as
// NewSpreader(seed) would, so one spreader can serve frame after frame.
func (s *Spreader) Reset(seed uint64) {
	s.scr.Reseed(seed)
}

// SpreadAppend expands symbols (each 0..15) into scrambled complex chips,
// 16 per symbol, and appends them to dst, so callers reuse one chip buffer
// across calls. The symbols are validated before any scrambler state
// advances, so a failed call leaves the stream synchronous.
//
//bhss:hotpath
func (s *Spreader) SpreadAppend(dst []complex128, symbols []int) ([]complex128, error) {
	for _, sym := range symbols {
		if sym < 0 || sym >= pn.NumSymbols {
			return nil, fmt.Errorf("dsss: symbol %d out of range", sym)
		}
	}
	base := len(dst)
	for _, sym := range symbols {
		dst = append(dst, s.rows[sym]...)
	}
	s.scr.Apply(dst[base:])
	return dst, nil
}

// Despreader recovers symbols from chip estimates using a correlator bank.
// Like the Spreader, its scrambler advances across calls and must stay
// chip-synchronous with the transmitter.
type Despreader struct {
	rows [][]complex128
	scr  *pn.Scrambler
}

// NewDespreader returns a despreader synchronized to the same seed as the
// transmitter's Spreader.
func NewDespreader(seed uint64) *Despreader {
	return &Despreader{rows: sharedRows(), scr: pn.NewScrambler(seed)}
}

// Reset restarts the despreader's scrambler from seed, leaving it as
// NewDespreader(seed) would, so one despreader can serve frame after frame.
func (d *Despreader) Reset(seed uint64) {
	d.scr.Reseed(seed)
}

// Despread consumes len(chips)/16 symbols worth of chip estimates and
// returns the hard symbol decisions together with the per-symbol correlation
// metric (the winning correlator's real output, normalized so a noise-free
// matched symbol scores ~16). Chips beyond the last whole symbol are an
// error: the framing layer always produces whole symbols.
func (d *Despreader) Despread(chips []complex128) ([]int, []float64, error) {
	return d.DespreadInto(nil, nil, chips)
}

// DespreadInto is Despread writing the decisions and metrics into the
// storage of symbols and metrics, each grown only when its capacity is
// short, for callers that reuse both across frames.
func (d *Despreader) DespreadInto(symbols []int, metrics []float64, chips []complex128) ([]int, []float64, error) {
	if len(chips)%ComplexChipsPerSymbol != 0 {
		return nil, nil, fmt.Errorf("dsss: %d chips is not a whole number of symbols", len(chips))
	}
	n := len(chips) / ComplexChipsPerSymbol
	symbols = resize(symbols, n)
	metrics = resize(metrics, n)
	var chip [ComplexChipsPerSymbol]complex128
	buf := chip[:]
	for i := 0; i < n; i++ {
		copy(buf, chips[i*ComplexChipsPerSymbol:(i+1)*ComplexChipsPerSymbol])
		// Descramble: the overlay is ±1, so applying it again removes it.
		d.scr.Apply(buf)
		best, bestMetric := 0, negInf
		for sym, row := range d.rows {
			acc := corrReal(buf, row)
			if acc > bestMetric {
				bestMetric = acc
				best = sym
			}
		}
		symbols[i] = best
		metrics[i] = bestMetric
	}
	return symbols, metrics, nil
}

// corrReal returns Σ real(a[i])·real(b[i]) + imag(a[i])·imag(b[i]) over
// len(a) elements, the real part of the conjugate correlation and the
// despreader's decision metric. The sum runs in a fixed two-lane order,
// kept so that despread metrics stay bit-identical: even and odd elements
// accumulate apart, the odd tail folds into the even lanes, and the lanes
// combine as (eRB+oRB)+(eIB+oIB).
func corrReal(a, b []complex128) float64 {
	var eRB, eIB, oRB, oIB float64
	n := len(a)
	i := 0
	for ; i+2 <= n; i += 2 {
		eRB += real(a[i]) * real(b[i])
		eIB += imag(a[i]) * imag(b[i])
		oRB += real(a[i+1]) * real(b[i+1])
		oIB += imag(a[i+1]) * imag(b[i+1])
	}
	if i < n {
		eRB += real(a[i]) * real(b[i])
		eIB += imag(a[i]) * imag(b[i])
	}
	return (eRB + oRB) + (eIB + oIB)
}

// resize returns a slice of length n, reusing s's storage when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

const negInf = -1e308
