// Package pn generates the pseudo-noise sequences used by the DSSS spreading
// layer: the 16-ary 32-chip quasi-orthogonal symbol table modeled on IEEE
// 802.15.4 (the paper's prototype "relies on a 16-ary DSSS modulation
// similar to the one used in IEEE 802.15.4", §6.1).
//
// It also provides the chip scrambler that makes the transmitted chip stream
// unpredictable to the jammer: a ±1 overlay drawn from the pre-shared random
// seed (the "Random seed -> PN sequence" box of Figure 4).
package pn

import (
	"fmt"

	"bhss/internal/prng"
)

// SymbolBits is the number of data bits carried per DSSS symbol (4, as in
// IEEE 802.15.4: one symbol = one hex digit).
const SymbolBits = 4

// ChipsPerSymbol is the spreading sequence length per symbol (32 chips).
const ChipsPerSymbol = 32

// NumSymbols is the alphabet size of the 16-ary modulation.
const NumSymbols = 1 << SymbolBits

// base802154 is the chip sequence of symbol 0 in the IEEE 802.15.4 2.4 GHz
// O-QPSK PHY (bit order c0..c31).
var base802154 = [ChipsPerSymbol]int8{
	1, 1, 0, 1, 1, 0, 0, 1,
	1, 1, 0, 0, 0, 0, 1, 1,
	0, 1, 0, 1, 0, 0, 1, 0,
	0, 0, 1, 0, 1, 1, 1, 0,
}

// ChipTable holds the 16 quasi-orthogonal 32-chip rows as ±1 values.
type ChipTable [NumSymbols][ChipsPerSymbol]int8

// NewChipTable builds the 802.15.4-style table: symbols 1..7 are cyclic
// right-shifts of symbol 0 by 4 chips each; symbols 8..15 repeat rows 0..7
// with every odd-indexed (quadrature) chip inverted.
func NewChipTable() *ChipTable {
	var t ChipTable
	for sym := 0; sym < 8; sym++ {
		shift := 4 * sym
		for i := 0; i < ChipsPerSymbol; i++ {
			b := base802154[(i-shift+ChipsPerSymbol*8)%ChipsPerSymbol]
			if b == 1 {
				t[sym][i] = 1
			} else {
				t[sym][i] = -1
			}
		}
	}
	for sym := 8; sym < NumSymbols; sym++ {
		for i := 0; i < ChipsPerSymbol; i++ {
			v := t[sym-8][i]
			if i%2 == 1 {
				v = -v
			}
			t[sym][i] = v
		}
	}
	return &t
}

// Row returns the ±1 chips of the given symbol (0..15).
func (t *ChipTable) Row(symbol int) []int8 {
	if symbol < 0 || symbol >= NumSymbols {
		//bhss:allow(panicpolicy) symbol indices come from 4-bit fields; out of range is a programming error
		panic(fmt.Sprintf("pn: symbol %d out of range", symbol))
	}
	row := make([]int8, ChipsPerSymbol)
	copy(row, t[symbol][:])
	return row
}

// ComplexChips maps the 32 binary chips of a symbol to 16 complex QPSK
// chips: even-indexed chips on I, odd-indexed on Q, scaled to unit power.
func (t *ChipTable) ComplexChips(symbol int) []complex128 {
	row := t.Row(symbol)
	out := make([]complex128, ChipsPerSymbol/2)
	const s = 0.7071067811865476 // 1/sqrt(2): unit chip power
	for i := range out {
		out[i] = complex(float64(row[2*i])*s, float64(row[2*i+1])*s)
	}
	return out
}

// ComplexTable returns all 16 rows in complex-chip form, for the
// despreader's correlator bank.
func (t *ChipTable) ComplexTable() [][]complex128 {
	out := make([][]complex128, NumSymbols)
	for s := range out {
		out[s] = t.ComplexChips(s)
	}
	return out
}

// Scrambler produces the ±1 chip overlay derived from the pre-shared seed.
// Transmitter and receiver construct Scramblers from the same seed and stay
// chip-synchronous. The zero value is not usable; construct with
// NewScrambler.
type Scrambler struct {
	src *prng.Source
}

// NewScrambler returns a scrambler seeded from the shared random source.
func NewScrambler(seed uint64) *Scrambler {
	return &Scrambler{src: prng.New(seed)}
}

// Reseed restarts the overlay from seed, as NewScrambler(seed) would.
func (s *Scrambler) Reseed(seed uint64) {
	s.src.Reseed(seed)
}

// Apply multiplies the chips in place by the next scrambling values.
func (s *Scrambler) Apply(chips []complex128) {
	for i := range chips {
		chips[i] *= complex(s.src.ChipBit(), 0)
	}
}
