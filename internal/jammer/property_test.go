package jammer

import (
	"math"
	"math/cmplx"
	"runtime"
	"testing"

	"bhss/internal/dsp"
	"bhss/internal/hop"
)

// The zoo property campaign: every jammer kind must (1) hit its configured
// power budget, (2) emit a bit-identical stream for the same seed regardless
// of how the stream is chunked or how many Ps the scheduler has, and
// (3) reproduce the stream exactly after Reset. Table-driven so the next
// adversary added to the zoo inherits the whole campaign by adding a row.

type zooEntry struct {
	name  string
	build func(t *testing.T) Source
	// powerTol is the relative tolerance on the measured mean |x|²; 0
	// skips the power check (not meaningful for the kind).
	powerTol float64
	// warmup samples skipped before the power measurement (filter warm-up
	// and, for followers, the sense+delay lead-in before the first tune).
	warmup int
}

// zoo builds one representative of every jammer kind at a fixed seed.
func zoo() []zooEntry {
	mustDist := func() hop.Distribution {
		d, err := hop.NewDistribution(hop.Linear, []float64{10, 2.5, 0.625})
		if err != nil {
			panic(err)
		}
		return d
	}
	return []zooEntry{
		{
			name: "bandlimited",
			build: func(t *testing.T) Source {
				j, err := NewBandlimited(0.2, 3, 11)
				if err != nil {
					t.Fatal(err)
				}
				return j
			},
			powerTol: 0.15,
			warmup:   2048,
		},
		{
			name: "hopping",
			build: func(t *testing.T) Source {
				j, err := NewHopping(mustDist(), 20, 2048, 3, 13)
				if err != nil {
					t.Fatal(err)
				}
				return j
			},
			powerTol: 0.15,
			warmup:   2048,
		},
		{
			name: "reactive",
			build: func(t *testing.T) Source {
				j, err := NewReactive(256, 512, 3, 14)
				if err != nil {
					t.Fatal(err)
				}
				return j
			},
			powerTol: 0.15,
			warmup:   2048,
		},
		{
			name: "multitone",
			build: func(t *testing.T) Source {
				j, err := NewMultitone(256, 512, 3, 15)
				if err != nil {
					t.Fatal(err)
				}
				return j
			},
			powerTol: 0.05,
			warmup:   2048,
		},
		{
			name: "adaptive",
			build: func(t *testing.T) Source {
				j, err := NewAdaptive(256, 512, 3, 16)
				if err != nil {
					t.Fatal(err)
				}
				return j
			},
			powerTol: 0.2,
			warmup:   4096,
		},
	}
}

// overheard builds the deterministic transmit stream the TxAware jammers
// sense in these tests: narrow-band noise that hops its bandwidth halfway
// through, so followers tune, retune and converge.
func overheard(t *testing.T, n int) []complex128 {
	t.Helper()
	a, err := NewBandlimited(0.4, 1, 4242)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBandlimited(0.05, 1, 4243)
	if err != nil {
		t.Fatal(err)
	}
	tx := a.Emit(n / 2)
	return append(tx, b.Emit(n-n/2)...)
}

// drive runs the jammer over the tx stream in the given chunk sizes
// (cycled) and concatenates the output. Plain sources Emit; TxAware
// sources Jam the corresponding tx chunk.
func drive(j Source, tx []complex128, chunks []int) []complex128 {
	out := make([]complex128, 0, len(tx))
	pos, ci := 0, 0
	for pos < len(tx) {
		n := chunks[ci%len(chunks)]
		ci++
		if pos+n > len(tx) {
			n = len(tx) - pos
		}
		if ta, ok := j.(TxAware); ok {
			out = append(out, ta.Jam(tx[pos:pos+n])...)
		} else {
			out = append(out, j.Emit(n)...)
		}
		pos += n
	}
	return out
}

func TestZooPowerBudget(t *testing.T) {
	const n = 1 << 15
	for _, e := range zoo() {
		t.Run(e.name, func(t *testing.T) {
			j := e.build(t)
			out := drive(j, overheard(t, n), []int{n})
			if e.powerTol == 0 {
				return
			}
			got := dsp.Power(out[e.warmup:])
			want := j.Power()
			if math.Abs(got-want)/want > e.powerTol {
				t.Fatalf("measured power %v, want %v ±%v%%", got, want, e.powerTol*100)
			}
		})
	}
}

func TestZooSeedDeterminismAcrossChunkings(t *testing.T) {
	const n = 1 << 14
	chunkings := [][]int{{n}, {997}, {64}, {1, 511, 64, 4096}}
	for _, e := range zoo() {
		t.Run(e.name, func(t *testing.T) {
			tx := overheard(t, n)
			ref := drive(e.build(t), tx, chunkings[0])
			for _, chunks := range chunkings[1:] {
				got := drive(e.build(t), tx, chunks)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("chunking %v diverges at sample %d: %v != %v",
							chunks, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

func TestZooSeedDeterminismAcrossGOMAXPROCS(t *testing.T) {
	const n = 1 << 13
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, e := range zoo() {
		t.Run(e.name, func(t *testing.T) {
			tx := overheard(t, n)
			runtime.GOMAXPROCS(1)
			one := drive(e.build(t), tx, []int{768})
			runtime.GOMAXPROCS(runtime.NumCPU())
			many := drive(e.build(t), tx, []int{768})
			for i := range one {
				if one[i] != many[i] {
					t.Fatalf("GOMAXPROCS changes the stream at sample %d", i)
				}
			}
		})
	}
}

func TestZooResetReplayInvariance(t *testing.T) {
	const n = 1 << 13
	for _, e := range zoo() {
		t.Run(e.name, func(t *testing.T) {
			tx := overheard(t, n)
			j := e.build(t)
			replay := func() []complex128 {
				var out []complex128
				half := len(tx) / 2
				if ta, ok := j.(TxAware); ok {
					out = append(out, ta.Jam(tx[:half])...)
					ta.NewBurst()
					out = append(out, ta.Jam(tx[half:])...)
				} else {
					out = append(out, j.Emit(half)...)
					out = append(out, j.Emit(len(tx)-half)...)
				}
				return out
			}
			first := replay()
			j.Reset()
			second := replay()
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("replay diverges at sample %d: %v != %v", i, first[i], second[i])
				}
			}
		})
	}
}

// TestZooNoNaN pins that no jammer ever emits a non-finite sample, even
// when sensing pure silence (the degenerate follower input).
func TestZooNoNaN(t *testing.T) {
	const n = 1 << 13
	for _, e := range zoo() {
		t.Run(e.name, func(t *testing.T) {
			j := e.build(t)
			for _, stream := range [][]complex128{
				drive(j, overheard(t, n), []int{513}),
				j.Emit(n), // hears silence from here on
			} {
				for i, v := range stream {
					if cmplx.IsNaN(v) || cmplx.IsInf(v) {
						t.Fatalf("non-finite sample at %d: %v", i, v)
					}
				}
			}
		})
	}
}
