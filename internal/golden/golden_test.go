// Package golden pins end-to-end IQ vectors — a clean transmit burst, the
// same burst through the canonical testbed impairment chain, the burst
// under band-limited jamming through each of the jammer's two shaping-filter
// lengths, and each follower jammer's waveform over the
// burst at two seeds — as byte-exact files with SHA-256 checksums. Any
// change to the modulator, the impairment stages, the jammer noise
// shaping, the follower estimator, or the PRNG alters a hash and fails here:
// the test distinguishes "intentional waveform change" (regenerate with
// -update and review the diff) from "accidental numerical drift".
//
// Vectors are serialized as little-endian float32 I/Q pairs (the iqstream
// wire format), which also quantizes away the last float64 bits so the
// pins hold on any IEEE-754 platform whose float32 rounding agrees.
package golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bhss/internal/core"
	"bhss/internal/impair"
	"bhss/internal/jammer"
	"bhss/internal/stats"
)

var update = flag.Bool("update", false, "regenerate golden IQ vectors and testdata/golden.sum")

const (
	goldenSeed    = 42
	goldenPayload = "bandwidth hopping golden vector"
	// The fidelity sweep's "testbed" level; changing that spec is a
	// waveform change and must regenerate these vectors.
	goldenImpairSpec = "cfo=1e3,ppm=10,phnoise=-85,quant=10"
)

// vectors defines the pinned captures. Generation must be fully
// deterministic: fixed seeds, no wall clock, single goroutine.
func vectors(t *testing.T) []struct {
	name string
	iq   []complex128
} {
	t.Helper()
	cfg := core.DefaultConfig(goldenSeed)
	tx, err := core.NewTransmitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := tx.EncodeFrame([]byte(goldenPayload))
	if err != nil {
		t.Fatal(err)
	}

	chain, err := impair.NewFromSpec(goldenImpairSpec, cfg.SampleRate, goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	impaired := chain.ProcessAppend(nil, burst.Samples)

	// 2.5 MHz selects the jammer's 129-tap shaping filter and 0.15625 MHz
	// (cutoff below 0.01 cycles/sample) its 513-tap one.
	jammedBy := func(bw float64) []complex128 {
		jam, err := jammer.NewBandlimited(bw/cfg.SampleRate, stats.FromDB(10), goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		noise := jam.Emit(len(burst.Samples))
		jammed := make([]complex128, len(burst.Samples))
		for i := range jammed {
			jammed[i] = burst.Samples[i] + noise[i]
		}
		return jammed
	}

	vecs := []struct {
		name string
		iq   []complex128
	}{
		{"tx_burst", burst.Samples},
		{"impaired_burst", impaired},
		{"jammed_burst", jammedBy(2.5)},
		{"jammed_narrow_burst", jammedBy(0.15625)},
	}

	// The follower zoo: each sensing adversary overhears the same pinned
	// burst and its jamming waveform is pinned at two seeds. Built through
	// the spec grammar, so these hashes also pin ParseSpec→Build end to end.
	for _, spec := range []string{
		"jam=reactive,delay=256,sense=512,power=10",
		"jam=multitone,delay=256,sense=512,power=10",
		"jam=adaptive,delay=256,sense=512,power=10",
	} {
		kind := strings.TrimPrefix(strings.SplitN(spec, ",", 2)[0], "jam=")
		for _, seed := range []uint64{goldenSeed, goldenSeed + 1000} {
			src, err := jammer.NewFromSpec(spec, cfg.SampleRate, seed)
			if err != nil {
				t.Fatal(err)
			}
			follower, ok := src.(jammer.TxAware)
			if !ok {
				t.Fatalf("%s did not build a TxAware jammer", spec)
			}
			vecs = append(vecs, struct {
				name string
				iq   []complex128
			}{
				fmt.Sprintf("follower_%s_s%d", kind, seed),
				follower.Jam(burst.Samples),
			})
		}
	}
	return vecs
}

func serialize(iq []complex128) []byte {
	var buf bytes.Buffer
	for _, v := range iq {
		binary.Write(&buf, binary.LittleEndian, float32(real(v)))
		binary.Write(&buf, binary.LittleEndian, float32(imag(v)))
	}
	return buf.Bytes()
}

func readSums(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden.sum"))
	if err != nil {
		t.Fatalf("read golden.sum (run with -update to create): %v", err)
	}
	sums := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, sum, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed golden.sum line %q", line)
		}
		sums[name] = sum
	}
	return sums
}

// TestGoldenVectors regenerates each vector from scratch and requires it
// to match both the checked-in .iq file (byte-exact) and the SHA-256 pin
// in golden.sum.
func TestGoldenVectors(t *testing.T) {
	vecs := vectors(t)

	if *update {
		var lines []string
		for _, v := range vecs {
			raw := serialize(v.iq)
			path := filepath.Join("testdata", v.name+".iq")
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			lines = append(lines, fmt.Sprintf("%s  %s", v.name, hex.EncodeToString(sum[:])))
		}
		sort.Strings(lines)
		if err := os.WriteFile(filepath.Join("testdata", "golden.sum"),
			[]byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden vectors regenerated; review the diff before committing")
		return
	}

	sums := readSums(t)
	for _, v := range vecs {
		t.Run(v.name, func(t *testing.T) {
			raw := serialize(v.iq)
			sum := sha256.Sum256(raw)
			want, ok := sums[v.name]
			if !ok {
				t.Fatalf("no pin for %s in golden.sum (run -update)", v.name)
			}
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("regenerated %s hash %s != pinned %s\n"+
					"the waveform changed; if intentional: go test ./internal/golden/ -run TestGoldenVectors -update",
					v.name, got, want)
			}
			disk, err := os.ReadFile(filepath.Join("testdata", v.name+".iq"))
			if err != nil {
				t.Fatalf("read golden file: %v", err)
			}
			if !bytes.Equal(disk, raw) {
				t.Errorf("%s.iq on disk differs from regenerated vector", v.name)
			}
		})
	}
}

// TestGoldenImpairedDiffers is a sanity check on the campaign itself: the
// impaired and jammed vectors must actually differ from the clean burst
// (a silently disabled chain would otherwise pin three identical files).
func TestGoldenImpairedDiffers(t *testing.T) {
	vecs := vectors(t)
	clean := serialize(vecs[0].iq)
	for _, v := range vecs[1:] {
		if bytes.Equal(clean, serialize(v.iq)) {
			t.Errorf("%s is byte-identical to the clean burst", v.name)
		}
	}
}

// TestGoldenFinite: golden vectors must be finite everywhere — a NaN in a
// pinned file would poison every downstream consumer invisibly.
func TestGoldenFinite(t *testing.T) {
	for _, v := range vectors(t) {
		for i, s := range v.iq {
			if math.IsNaN(real(s)) || math.IsNaN(imag(s)) ||
				math.IsInf(real(s), 0) || math.IsInf(imag(s), 0) {
				t.Fatalf("%s: non-finite sample at %d", v.name, i)
			}
		}
	}
}
