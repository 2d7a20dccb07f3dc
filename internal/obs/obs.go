// Package obs is the pipeline's zero-allocation observability layer:
// atomic counters and gauges, lock-free power-of-two-bucket histograms, and
// a ring-buffer span tracer with monotonic-clock stage timing. It exists so
// the performance work of PR 1 (plan/notch caches, zero-alloc hot paths) and
// the per-hop control decisions of §4.2 are visible at runtime — which
// filter branch fired, how long each stage took, how often the caches hit —
// without perturbing the DSP: recording never touches sample data, and every
// recording primitive is allocation-free and safe for concurrent use, so
// //bhss:hotpath functions stay at 0 allocs/op with metrics enabled and the
// reproduced figures are bit-identical with the observer on or off.
//
// The layer is opt-in at every level: transmitters, receivers and channels
// carry a nil observer by default and skip all recording. Attach a
// *Pipeline (see NewPipeline) to turn it on, then read it three ways:
//
//   - Pipeline.Snapshot for programmatic consumption (the experiment
//     harness's live progress reporting);
//   - SnapshotWriter for periodic JSONL/CSV export (bhssbench sweeps);
//   - ServeDebug for an expvar-compatible JSON endpoint plus net/http/pprof
//     behind the cmd tools' -debug-addr flag.
//
// Metric naming follows "<subsystem>.<metric>[.<variant>]" with _ns suffixes
// on duration histograms; DESIGN.md §10 documents the full scheme.
//
// Time: all timestamps are monotonic nanoseconds since process start
// (Now/Start/Stopwatch). Wall-clock time never enters a metric, so the
// determinism contract (bhsslint's detrand) is preserved: observability
// readings vary run to run, but they only describe the computation — they
// never feed it.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors the package's monotonic clock at process start.
//
//bhss:allow(detrand) observability clock anchor: readings time stages and never feed the simulation
var epoch = time.Now()

// Now returns monotonic nanoseconds since process start. It never goes
// backwards (time.Since reads the monotonic clock) and performs no
// allocation.
//
//bhss:allow(detrand) observability clock: readings time stages and never feed the simulation
func Now() int64 { return int64(time.Since(epoch)) }

// Stopwatch marks one start instant on the monotonic clock.
type Stopwatch int64

// Start returns a stopwatch started now.
func Start() Stopwatch { return Stopwatch(Now()) }

// ElapsedNS returns the nanoseconds elapsed since Start.
func (s Stopwatch) ElapsedNS() int64 { return Now() - int64(s) }

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are allocation-free and safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is a caller bug; the counter is monotone by
// convention, not enforcement).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a last-value float metric (packet-loss rate of the most recent
// sweep point, current SNR under test). The zero value reads 0.
type Gauge struct{ bits atomic.Uint64 }

// Store records v as the current value.
func (g *Gauge) Store(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the most recently stored value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the fixed bucket count of Histogram: bucket i counts the
// values whose bit length is i, i.e. bucket 0 holds exact zeros and bucket
// i>0 holds [2^(i-1), 2^i). 64 buckets cover the full non-negative int64
// range, so no observation is ever dropped or clamped into a catch-all.
const histBuckets = 64

// Histogram is a lock-free histogram over non-negative int64 values
// (typically nanoseconds) with power-of-two bucket boundaries. Recording is
// three atomic adds plus a bounded CAS loop for the max — no locks, no
// allocation — so hot paths can observe durations freely. Quantiles are
// upper bounds with factor-two resolution, which is exactly the fidelity
// stage-latency monitoring needs (is despread 2µs or 2ms?) at none of the
// cost of exact percentile sketches.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values are clamped to zero (durations
// from a monotonic clock cannot be negative; the clamp keeps a buggy caller
// from corrupting bucket indexing).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))&(histBuckets-1)].Add(1)
}

// ObserveSince records the elapsed nanoseconds of a stopwatch started with
// Start. It is the canonical deferred-timing form:
//
//	defer h.ObserveSince(obs.Start())
func (h *Histogram) ObserveSince(s Stopwatch) { h.Observe(s.ElapsedNS()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]): the upper
// edge of the first bucket whose cumulative count reaches q, capped at the
// observed max. Resolution is a factor of two, by construction.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i == 0 {
				return 0
			}
			ub := int64(1)<<uint(i) - 1
			if m := h.max.Load(); ub > m {
				ub = m
			}
			return ub
		}
	}
	return h.max.Load()
}

// ---- global metric registry ----
//
// Package-level caches (the dsp FFT-plan cache) live below any single link
// pipeline; they register read-only accessors here once, at init, and every
// Pipeline snapshot includes them under their registered names.

var (
	globalsMu sync.Mutex
	globals   []globalMetric
)

type globalMetric struct {
	name string
	fn   func() int64
}

// RegisterGlobal registers a process-wide counter accessor included in every
// Snapshot (names should follow the "<pkg>.<metric>" scheme). The first
// registration of a name wins; re-registration is ignored so tests and
// multiple inits stay safe.
func RegisterGlobal(name string, fn func() int64) {
	globalsMu.Lock()
	defer globalsMu.Unlock()
	for _, g := range globals {
		if g.name == name {
			return
		}
	}
	globals = append(globals, globalMetric{name: name, fn: fn})
}

// globalCounters reads every registered global, in registration order
// (inits run in deterministic import order, so the column layout of CSV
// snapshots is stable within a build).
func globalCounters() []CounterStat {
	globalsMu.Lock()
	defer globalsMu.Unlock()
	out := make([]CounterStat, len(globals))
	for i, g := range globals {
		out[i] = CounterStat{Name: g.name, Value: g.fn()}
	}
	return out
}
