package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// smokePlan runs every workload in seconds: a few frames, a few blocks and
// one Fig 13 cell.
func smokePlan() plan {
	return plan{
		setupReps: 2, rounds: 2,
		cleanFrames: 20, jammedFrames: 14,
		sweepBandwidths: []float64{10}, sweepFrames: 3,
		hubWarm: 4, hubLockstep: 40, hubStreamed: 64,
		codecBlocks: 8,
	}
}

type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced and
// checks that each emits exactly the metrics BENCHMARK.json names, with
// their units, and counts its operations.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			o, err := w.run(smokePlan(), options{seed: 1, trace: trace, traceOut: spans})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			res := o.result(trace)
			if !res.Correct {
				t.Errorf("%s trace=%t: incorrect: %v", w.name, trace, o.problems)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%t: attempted %d failed %d", w.name, trace, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			if trace {
				checkSpanFile(t, spans)
			}
		}
	}
}

// checkSpanFile checks that a traced run wrote well-formed spans whose
// parents precede them.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for ; sc.Scan(); n++ {
		var s struct {
			Name   string
			Parent int
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s line %d: %v", path, n, err)
		}
		if s.Name == "" || s.Parent >= n {
			t.Fatalf("%s line %d: bad span %s", path, n, sc.Text())
		}
	}
	if n == 0 {
		t.Fatalf("%s: no spans", path)
	}
}

// TestLayersSumToFrameTime checks the traced ledger: the self times of the
// layers add up to the traced frame time.
func TestLayersSumToFrameTime(t *testing.T) {
	o, err := runLinkJammed(smokePlan(), options{seed: 1, trace: true, traceOut: filepath.Join(t.TempDir(), "s.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	self := []string{
		"link.unattributed_us", "core.tx.spread_us", "core.tx.modulate_us", "core.tx.unattributed_us",
		"jammer.emit_us", "channel.mix_us", "channel.awgn_us",
		"core.rx.estimate_us", "spectral.psd_us", "core.rx.filter_design_us", "dsp.filter_us",
		"tracking.costas_us", "pulse.demod_us", "dsss.despread_us", "core.rx.unattributed_us",
	}
	sum := 0.0
	for _, name := range self {
		sum += o.layer[name]
	}
	if frame := o.layer["link.frame_us"]; math.Abs(sum-frame) > 1e-6*frame {
		t.Errorf("layer self times sum to %v us, frame is %v us", sum, frame)
	}
}

// TestChecksRejectCorruption feeds each correctness check one corrupted
// output.
func TestChecksRejectCorruption(t *testing.T) {
	sent := []byte("thirty-two bytes of test payload")
	got := append([]byte(nil), sent...)
	if err := checkPayload(sent, got); err != nil {
		t.Fatalf("intact payload rejected: %v", err)
	}
	got[7] ^= 0x10
	if checkPayload(sent, got) == nil {
		t.Error("flipped payload byte accepted")
	}

	seq := sequence{re0: 12345, im0: seqWrap - 3}
	blk := make([]complex128, hubBlock)
	seq.fill(blk, seqWrap-100) // crosses the wrap
	if err := seq.verify(blk, seqWrap-100); err != nil {
		t.Fatalf("intact block rejected: %v", err)
	}
	blk[1000] += 1
	if seq.verify(blk, seqWrap-100) == nil {
		t.Error("off-by-one hub sample accepted")
	}
}

// TestSeedOneAnchors checks that seed-1 runs must reproduce the recorded
// sweep advantage and jammed-link loss exactly.
func TestSeedOneAnchors(t *testing.T) {
	e, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		adv  float64
		seed uint64
		ok   bool
	}{{e.AdvDB, 1, true}, {e.AdvDB + 0.25, 1, false}, {e.AdvDB + 0.25, 2, true}} {
		o := newOutcome()
		o.layer["experiment.adv_db"] = tc.adv
		if err := checkExpected(o, "sweep_fig13", tc.seed); err != nil {
			t.Fatal(err)
		}
		if ok := len(o.problems) == 0; ok != tc.ok {
			t.Errorf("adv_db %v at seed %d: passed=%t, want %t", tc.adv, tc.seed, ok, tc.ok)
		}
	}
	o := newOutcome()
	o.layer["link.frames"] = float64(e.Jammed.Frames)
	o.layer["link.frame_loss"] = float64(e.Jammed.Lost+1) / float64(e.Jammed.Frames)
	if err := checkExpected(o, "link_jammed", 1); err != nil || len(o.problems) != 1 {
		t.Errorf("one extra lost frame at seed 1: err %v, problems %v", err, o.problems)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestJudgePairRule(t *testing.T) {
	b := bound{Name: "msps", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		label  string
	}{
		{scaled(1.05), "gain"},
		{scaled(1.0), "within"},
		{scaled(0.85), "REGRESSION"},
	} {
		if v := judge(b, base, tc.change); v.label != tc.label {
			t.Errorf("change %v: %s, want %s", tc.change[0], v.label, tc.label)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if v := judge(b, noisy, noisy); v.label != "unresolved" {
		t.Errorf("noisy base: %s, want unresolved", v.label)
	}
}
