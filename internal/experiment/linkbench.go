package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"bhss/internal/core"
)

// LinkBenchSample is one measured configuration of the end-to-end link
// benchmark (encode + decode of a 32-byte frame at the default 20 MS/s
// configuration).
type LinkBenchSample struct {
	// MsPerOp is the wall-clock cost of one encode+decode round trip.
	MsPerOp float64 `json:"ms_per_op"`
	// AllocsPerOp is the steady-state heap allocation count per round trip.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is the steady-state heap bytes per round trip.
	BytesPerOp int64 `json:"bytes_per_op"`
	// SamplesPerSec is the complex-sample rate the pipeline sustained; the
	// paper's real-time target is 20e6 (20 MS/s).
	SamplesPerSec float64 `json:"samples_per_sec"`
}

// LinkBenchResult is the machine-readable output of `bhssbench -exp
// throughput`, committed as BENCH_link.json and used by CI as the
// performance-regression baseline.
type LinkBenchResult struct {
	// GitRev is the source revision the numbers were measured at (filled
	// by the caller; the library cannot know it).
	GitRev string `json:"git_rev"`
	// BaselineRev, when the result was written over an existing baseline
	// file measured at a different revision, records that prior revision —
	// so a regenerated BENCH_link.json always shows which baseline it
	// replaced and a stale-rev overwrite can never happen silently.
	BaselineRev string `json:"baseline_git_rev,omitempty"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	// SIMD names the active vector-kernel mode (internal/dsp/simd).
	SIMD string `json:"simd"`
	// Serial is the DecodeBurst receive path.
	Serial LinkBenchSample `json:"serial"`
}

// linkBenchSample measures the link with the testing benchmark harness
// (which picks an iteration count to fill benchtime).
func linkBenchSample() (LinkBenchSample, error) {
	cfg := core.DefaultConfig(1)
	tx, err := core.NewTransmitter(cfg)
	if err != nil {
		return LinkBenchSample{}, err
	}
	rx, err := core.NewReceiver(cfg)
	if err != nil {
		return LinkBenchSample{}, err
	}
	payload := make([]byte, 32)
	var buf []complex128
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		var samples int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			burst, err := tx.EncodeFrameInto(buf[:0], payload)
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			buf = burst.Samples
			samples += int64(len(burst.Samples))
			if _, _, err := rx.DecodeBurst(burst.Samples); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
		b.SetBytes(samples * 16 / int64(b.N))
	})
	if benchErr != nil {
		return LinkBenchSample{}, benchErr
	}
	nsPerOp := float64(res.T.Nanoseconds()) / float64(res.N)
	bytesPerSec := float64(res.Bytes) * float64(res.N) / res.T.Seconds()
	return LinkBenchSample{
		MsPerOp:       nsPerOp / 1e6,
		AllocsPerOp:   res.AllocsPerOp(),
		BytesPerOp:    res.AllocedBytesPerOp(),
		SamplesPerSec: bytesPerSec / 16,
	}, nil
}

// LinkThroughput measures the end-to-end link. gitRev is recorded verbatim.
func LinkThroughput(gitRev, simdMode string) (LinkBenchResult, error) {
	serial, err := linkBenchSample()
	if err != nil {
		return LinkBenchResult{}, fmt.Errorf("experiment: serial link bench: %w", err)
	}
	return LinkBenchResult{
		GitRev:    gitRev,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		SIMD:      simdMode,
		Serial:    serial,
	}, nil
}

// StoreMetrics flattens the result into the canonical metric list the
// campaign store records. Both are machine-dependent, so the result
// store's regression gate treats them as informational (CI's
// bench-regression job owns the noise-aware throughput gate); the store
// still makes their per-revision trajectory visible.
func (r LinkBenchResult) StoreMetrics() []Metric {
	return []Metric{
		{Name: "serial_ms_per_op", Value: r.Serial.MsPerOp, Unit: "ms", HigherIsBetter: false},
		{Name: "serial_msps", Value: r.Serial.SamplesPerSec / 1e6, Unit: "MS/s", HigherIsBetter: true},
	}
}

// WriteJSON renders the result as indented JSON (the BENCH_link.json
// format).
func (r LinkBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String summarizes the result for terminal output.
func (r LinkBenchResult) String() string {
	return fmt.Sprintf(
		"link throughput @ %s (%s %s/%s, %d cpu, simd %s)\n"+
			"  serial: %.3f ms/op  %d allocs/op  %.1f MS/s",
		r.GitRev, r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU, r.SIMD,
		r.Serial.MsPerOp, r.Serial.AllocsPerOp, r.Serial.SamplesPerSec/1e6)
}
