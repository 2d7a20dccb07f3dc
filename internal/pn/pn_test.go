package pn

import (
	"math"
	"testing"
	"testing/quick"

	"bhss/internal/dsp"
)

func TestChipTableRowsDistinct(t *testing.T) {
	tb := NewChipTable()
	for a := 0; a < NumSymbols; a++ {
		for b := a + 1; b < NumSymbols; b++ {
			same := true
			for i := 0; i < ChipsPerSymbol; i++ {
				if tb[a][i] != tb[b][i] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("symbols %d and %d share a chip row", a, b)
			}
		}
	}
}

func TestChipTableQuasiOrthogonal(t *testing.T) {
	// The 802.15.4 family is quasi-orthogonal in complex-chip space: the
	// despreader's correlation metric for a wrong symbol stays well below
	// the matched peak (16).
	tb := NewChipTable()
	rows := tb.ComplexTable()
	for a := 0; a < NumSymbols; a++ {
		peak := dsp.DotConj(rows[a], rows[a])
		if math.Abs(real(peak)-16) > 1e-9 || math.Abs(imag(peak)) > 1e-9 {
			t.Fatalf("symbol %d self-correlation %v, want 16", a, peak)
		}
		for b := 0; b < NumSymbols; b++ {
			if a == b {
				continue
			}
			cross := dsp.DotConj(rows[a], rows[b])
			mag := math.Hypot(real(cross), imag(cross))
			if mag > 12 {
				t.Fatalf("symbols %d/%d complex cross-correlation %v too high", a, b, mag)
			}
		}
	}
}

func TestChipTableConjugatePairs(t *testing.T) {
	// Rows 8..15 are rows 0..7 with odd (Q) chips inverted.
	tb := NewChipTable()
	for s := 8; s < NumSymbols; s++ {
		for i := 0; i < ChipsPerSymbol; i++ {
			want := tb[s-8][i]
			if i%2 == 1 {
				want = -want
			}
			if tb[s][i] != want {
				t.Fatalf("symbol %d chip %d: conjugation violated", s, i)
			}
		}
	}
}

func TestChipTableCyclicShiftStructure(t *testing.T) {
	tb := NewChipTable()
	for s := 1; s < 8; s++ {
		for i := 0; i < ChipsPerSymbol; i++ {
			if tb[s][i] != tb[0][(i-4*s+ChipsPerSymbol*8)%ChipsPerSymbol] {
				t.Fatalf("symbol %d is not a 4-chip shift of symbol 0", s)
			}
		}
	}
}

func TestRowPanicsOutOfRange(t *testing.T) {
	tb := NewChipTable()
	defer func() {
		if recover() == nil {
			t.Fatal("Row(16) should panic")
		}
	}()
	tb.Row(16)
}

func TestComplexChipsUnitPower(t *testing.T) {
	tb := NewChipTable()
	for s := 0; s < NumSymbols; s++ {
		chips := tb.ComplexChips(s)
		if len(chips) != ChipsPerSymbol/2 {
			t.Fatalf("symbol %d: %d complex chips, want %d", s, len(chips), ChipsPerSymbol/2)
		}
		if p := dsp.Power(chips); math.Abs(p-1) > 1e-12 {
			t.Fatalf("symbol %d chip power %v, want 1", s, p)
		}
	}
}

func TestScramblerDeterministicAndBalanced(t *testing.T) {
	a := NewScrambler(123)
	b := NewScrambler(123)
	va, vb := ones(10000), ones(10000)
	a.Apply(va)
	b.Apply(vb)
	var sum float64
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("scramblers with same seed diverged at %d", i)
		}
		sum += real(va[i])
	}
	if math.Abs(sum)/10000 > 0.05 {
		t.Fatalf("scrambler bias %v", sum/10000)
	}
}

func TestScramblerApplyIsInvolution(t *testing.T) {
	chips := make([]complex128, 64)
	for i := range chips {
		chips[i] = complex(float64(i%3)-1, float64(i%5)-2)
	}
	orig := append([]complex128(nil), chips...)
	NewScrambler(9).Apply(chips)
	NewScrambler(9).Apply(chips) // descramble with identical stream
	for i := range chips {
		if chips[i] != orig[i] {
			t.Fatalf("scramble twice != identity at %d", i)
		}
	}
}

func TestQuickScramblerValuesAreSigns(t *testing.T) {
	f := func(seed uint64) bool {
		v := ones(64)
		NewScrambler(seed).Apply(v)
		for _, c := range v {
			if (real(c) != 1 && real(c) != -1) || imag(c) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// ones returns n unit chips, which Scrambler.Apply turns into the
// scrambling values themselves.
func ones(n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
