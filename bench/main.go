// Command bench is the repository's benchmark. It runs one of four seeded,
// closed-loop workloads (a clean link, a jammed link, a Fig 13 sweep and a
// hub link), checks the program's outputs, prints every metric by name
// with its unit, and ends with one JSON result line:
//
//	bench --workload link_clean --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the run repeats the same work with spans around every call into a layer
// (and the program's own observer attached) and the result carries the
// per-layer metrics. Set mode runs several seeds of every workload into a
// JSONL file; compare mode applies the pair rule to two such files:
//
//	bench -set 10 -first-seed 1 -seconds 15 -out base.jsonl
//	bench -compare base.jsonl change.jsonl
//
// Run it through run.sh, which builds it from the checkout's sources.
// README.md lists the workloads, the metrics and their bounds.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"bhss/internal/dsp/simd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints. Its keys are fixed: tools that read
// BENCHMARK.json's command parse this line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits and layerUnits are the metric sets of an untraced and a traced
// run. Every workload emits every name; a layer the workload does not run
// reads 0.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"msps":           "MS/s",
	"latency_ms_p50": "ms",
	"allocs_per_op":  "count",
}

var layerUnits = map[string]string{
	"link.frame_us":                   "us",
	"link.frame_ms_p99":               "ms",
	"link.frames":                     "count",
	"link.frame_loss":                 "share",
	"link.unattributed_us":            "us",
	"core.tx.encode_us":               "us",
	"core.tx.spread_us":               "us",
	"core.tx.modulate_us":             "us",
	"core.tx.unattributed_us":         "us",
	"jammer.emit_us":                  "us",
	"jammer.share":                    "share",
	"channel.mix_us":                  "us",
	"channel.awgn_us":                 "us",
	"core.rx.decode_us":               "us",
	"core.rx.estimate_us":             "us",
	"spectral.psd_us":                 "us",
	"core.rx.filter_design_us":        "us",
	"dsp.filter_us":                   "us",
	"tracking.costas_us":              "us",
	"pulse.demod_us":                  "us",
	"dsss.despread_us":                "us",
	"core.rx.unattributed_us":         "us",
	"core.rx.pipelined_us":            "us",
	"core.rx.pipelined_speedup":       "ratio",
	"core.rx.notch_cache.hit_ratio":   "share",
	"core.rx.notch_cache.evictions":   "count",
	"core.rx.lowpass_cache.hit_ratio": "share",
	"core.rx.welch_cache.hit_ratio":   "share",
	"core.rx.hops.none":               "share",
	"core.rx.hops.lowpass":            "share",
	"core.rx.hops.excision":           "share",
	"experiment.point_ms":             "ms",
	"experiment.points":               "count",
	"experiment.frames":               "count",
	"experiment.worker_busy_share":    "share",
	"experiment.adv_db":               "dB",
	"iqstream.dial_us":                "us",
	"iqstream.send_us":                "us",
	"iqstream.recv_wait_us":           "us",
	"iqstream.codec_us":               "us",
	"hub.block_rtt_us_p99":            "us",
	"hub.mixed_blocks":                "count",
	"hub.rx_queue_drops":              "count",
	"hub.queue_high_water":            "count",
	"trace.overhead":                  "share",
	"host.speed":                      "ratio",
}

// options are the per-run inputs shared by every workload.
type options struct {
	seed uint64
	// trace adds the traced pass and the per-layer metrics.
	trace bool
	// traceOut is where the traced pass writes its spans (JSONL).
	traceOut string
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	// problems lists every failed correctness check.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a failed correctness check unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one named traffic mix. Its run function does the fixed
// amount of work the plan sets, from the seed alone.
type workload struct {
	name string
	run  func(p plan, opt options) (*outcome, error)
}

var workloads = []workload{
	{"link_clean", runLinkClean},
	{"link_jammed", runLinkJammed},
	{"sweep_fig13", runSweep},
	{"hub_link", runHub},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// plan sizes every workload. A plan is a pure function of --seconds, so
// the same arguments always do the same work and count metrics repeat
// exactly.
type plan struct {
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps int
	// rounds splits timed work; throughput is the median over rounds.
	rounds                    int
	cleanFrames, jammedFrames int
	// sweepBandwidths and sweepFrames set the Fig 13 grid and its scale.
	sweepBandwidths []float64
	sweepFrames     int
	// hubWarm, hubLockstep and hubStreamed count 4096-sample blocks.
	hubWarm, hubLockstep, hubStreamed int
	// codecBlocks is the traced run's wire-codec loop length.
	codecBlocks int
}

// fig13Bandwidths is the sweep's signal/jammer bandwidth set in MHz: 16
// cells spanning the paper's range at a 4x step.
var fig13Bandwidths = []float64{10, 2.5, 0.625, 0.15625}

// planFor sizes each workload to measure for about seconds on a 2-core
// 2.1 GHz x86-64 host (README.md records the rates behind the constants).
// The Fig 13 sweep is one fixed grid whatever the duration: its seed-1
// advantage is a recorded correctness anchor.
func planFor(seconds int) plan {
	s := seconds
	return plan{
		setupReps:       5,
		rounds:          4 * s,
		cleanFrames:     1150 * s,
		jammedFrames:    28 * s,
		sweepBandwidths: fig13Bandwidths,
		sweepFrames:     12,
		hubWarm:         32,
		hubLockstep:     1700 * s,
		hubStreamed:     2700 * s,
		codecBlocks:     200 * s,
	}
}

// expected holds the values a seed-1 run must reproduce exactly.
type expected struct {
	Seed uint64 `json:"seed"`
	// AdvDB is the full sweep's mean advantage (any --seconds).
	AdvDB float64 `json:"adv_db"`
	// Jammed pins link_jammed's lost-frame count for one run length.
	Jammed struct {
		Frames int64 `json:"frames"`
		Lost   int64 `json:"lost"`
	} `json:"link_jammed"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// stamp identifies the host and build a result was measured on.
type stamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	SIMD       string `json:"simd"`
	Rev        string `json:"git_rev"`
}

func hostStamp() stamp {
	return stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		SIMD:       simd.Active().String(),
		Rev:        gitRev("."),
	}
}

// gitRev reads the checkout's revision straight from .git under root, so
// the benchmark never runs git or looks outside the checkout. A checkout
// without .git reads "unknown".
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: link_clean, link_jammed, sweep_fig13 or hub_link")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 15, "measuring time one run is sized for")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	setN := fs.Int("set", 0, "run this many seeds of every workload, interleaved, appending to -out")
	firstSeed := fs.Uint64("first-seed", 1, "first seed of a set")
	out := fs.String("out", "", "JSONL file a set appends to")
	compare := fs.Bool("compare", false, "compare two set files: -compare base.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two set files")
			return 2
		}
		var ok bool
		ok, err = compareSets(stdout, fs.Arg(0), fs.Arg(1))
		if err == nil && !ok {
			return 1
		}
	case *setN > 0:
		if *out == "" {
			fmt.Fprintln(stderr, "bench: -set needs -out")
			return 2
		}
		err = runSet(stderr, *setN, *firstSeed, *seconds, *out)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		opt := options{seed: *seed, trace: *trace == 1,
			traceOut: filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))}
		err = runOne(stdout, stderr, w, planFor(*seconds), opt, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// runOne runs one workload and prints its metrics, ending with the result
// line.
func runOne(stdout, stderr io.Writer, w workload, p plan, opt options, seconds int) error {
	st := hostStamp()
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%d trace=%t nproc=%d gomaxprocs=%d go=%s %s/%s simd=%s rev=%s\n",
		w.name, opt.seed, seconds, opt.trace, st.NumCPU, st.GOMAXPROCS, st.Go, st.GOOS, st.GOARCH, st.SIMD, st.Rev)
	o, err := w.run(p, opt)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if err := checkExpected(o, w.name, opt.seed); err != nil {
		return err
	}
	res := o.result(opt.trace)
	for _, line := range o.problems {
		fmt.Fprintf(stderr, "check failed: %s\n", line)
	}
	printMetrics(stdout, o)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// checkExpected compares a seed-1 run against the recorded values.
func checkExpected(o *outcome, name string, seed uint64) error {
	e, err := loadExpected()
	if err != nil || seed != e.Seed {
		return err
	}
	switch name {
	case "sweep_fig13":
		got := o.layer["experiment.adv_db"]
		//bhss:allow(floateq) exact-value check is the point: the advantage is a bisection result, bit-identical at fixed code and seed
		o.check(got == e.AdvDB, "seed %d adv_db = %v, recorded %v", seed, got, e.AdvDB)
	case "link_jammed":
		if frames := int64(o.layer["link.frames"]); frames == e.Jammed.Frames {
			lost := int64(math.Round(o.layer["link.frame_loss"] * float64(frames)))
			o.check(lost == e.Jammed.Lost, "seed %d lost %d of %d frames, recorded %d", seed, lost, frames, e.Jammed.Lost)
		}
	}
	return nil
}

// result selects the end-to-end metrics of an untraced run or the per-layer
// metrics of a traced one.
func (o *outcome) result(trace bool) result {
	units, values := e2eUnits, o.e2e
	if trace {
		units, values = layerUnits, o.layer
	}
	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for name, unit := range units {
		v := values[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			res.Correct = false
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return res
}

// printMetrics prints every metric the run computed, one per line.
func printMetrics(w io.Writer, o *outcome) {
	for _, set := range []struct {
		units  map[string]string
		values map[string]float64
	}{{e2eUnits, o.e2e}, {layerUnits, o.layer}} {
		names := make([]string, 0, len(set.values))
		for name := range set.values {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%-34s %16.6g %s\n", name, set.values[name], set.units[name])
		}
	}
	fmt.Fprintf(w, "%-34s %16d\n%-34s %16d\n", "attempted", o.attempted, "failed", o.failed)
}
