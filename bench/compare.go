package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// record is one line of a set file: one untraced run with its host stamp.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Stamp    stamp  `json:"stamp"`
	Result   result `json:"result"`
}

// runSet runs seeds first..first+n-1 of every workload, interleaved
// (A B C D A B C D ...) so slow drift on a shared host hits every workload
// alike. Each run is a child process, as a lone run would be, and its
// record is appended to out.
func runSet(stderr io.Writer, n int, first uint64, secs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	st := hostStamp()
	for i := 0; i < n; i++ {
		seed := first + uint64(i)
		for _, w := range workloads {
			res, err := runChild(exe, w.name, seed, secs)
			if err != nil {
				f.Close()
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			line, err := json.Marshal(record{Workload: w.name, Seed: seed, Seconds: secs, Stamp: st, Result: res})
			if err != nil {
				f.Close()
				return err
			}
			if _, err := f.Write(append(line, '\n')); err != nil {
				f.Close()
				return err
			}
			fmt.Fprintf(stderr, "set: %s seed %d correct=%t\n", w.name, seed, res.Correct)
		}
	}
	return f.Close()
}

// runChild runs one untraced workload in a child process and parses its
// result line. The child's diagnostics pass through to stderr.
func runChild(exe, name string, seed uint64, secs int) (result, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(secs), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// readSet loads a set file as workload -> seed -> record (a later line for
// the same pair wins).
func readSet(path string) (map[string]map[uint64]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := map[string]map[uint64]record{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[uint64]record{}
		}
		set[r.Workload][r.Seed] = r
	}
	return set, sc.Err()
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// verdict is one metric's comparison on one workload.
type verdict struct {
	base, change float64 // medians
	baseSpread   float64 // base interquartile range over its median
	wins, pairs  int
	label        string
}

// judge applies the pair rule and the metric's bound. Pairs share a seed.
// A gain needs at least 10 pairs, the change winning at least 9 in 10 of
// them (ties count for neither), and medians further apart than the base's
// interquartile range. Where the base's spread is wider than the bound the
// metric is unresolved, unless every change run beats every base run.
func judge(b bound, base, change []float64) verdict {
	v := verdict{base: median(base), change: median(change), pairs: len(base)}
	sign := 1.0
	if b.Better == "lower" {
		sign = -1
	}
	for i := range base {
		if sign*(change[i]-base[i]) > 0 {
			v.wins++
		}
	}
	q1, q3 := quartiles(base)
	v.baseSpread = ratio(q3-q1, math.Abs(v.base))
	gain := sign * (v.change - v.base)
	allBetter := true
	for _, c := range change {
		for _, x := range base {
			if sign*(c-x) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case v.pairs >= 10 && v.wins*10 >= 9*v.pairs && gain > q3-q1:
		v.label = "gain"
	case allBetter:
		v.label = "better"
	case v.baseSpread > b.Bound:
		v.label = "unresolved"
	case -gain > b.Bound*math.Abs(v.base):
		v.label = "REGRESSION"
	default:
		v.label = "within"
	}
	return v
}

// compareSets prints one verdict row per workload and reports whether the
// change holds every bound of BENCHMARK.json (read from the working
// directory, the checkout root) and stays correct.
func compareSets(w io.Writer, basePath, changePath string) (bool, error) {
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	base, err := readSet(basePath)
	if err != nil {
		return false, err
	}
	change, err := readSet(changePath)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-12s %5s %9s", "workload", "pairs", "failed")
	for _, b := range bounds {
		fmt.Fprintf(w, " | %-28s", b.Name+" ("+b.Better+" ±"+strconv.FormatFloat(b.Bound*100, 'g', 3, 64)+"%)")
	}
	fmt.Fprintln(w)
	var details strings.Builder
	for _, wl := range workloads {
		var seeds []uint64
		for seed := range base[wl.name] {
			if _, in := change[wl.name][seed]; in {
				seeds = append(seeds, seed)
			}
		}
		if len(seeds) == 0 {
			continue
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		var failedBase, failedChange int64
		correct := true
		for _, s := range seeds {
			rb, rc := base[wl.name][s].Result, change[wl.name][s].Result
			failedBase += rb.Failed
			failedChange += rc.Failed
			correct = correct && rb.Correct && rc.Correct
		}
		moreFailures := failedChange > failedBase
		fmt.Fprintf(w, "%-12s %5d %4d/%-4d", wl.name, len(seeds), failedBase, failedChange)
		for _, b := range bounds {
			bv, cv := make([]float64, len(seeds)), make([]float64, len(seeds))
			for i, s := range seeds {
				bv[i] = base[wl.name][s].Result.Metrics[b.Name].Value
				cv[i] = change[wl.name][s].Result.Metrics[b.Name].Value
			}
			v := judge(b, bv, cv)
			if v.label == "gain" && moreFailures {
				v.label = "void:failures"
			}
			ok = ok && v.label != "REGRESSION" && v.label != "unresolved"
			fmt.Fprintf(w, " | %+7.2f%% %2d/%-2d %-13s", 100*ratio(v.change-v.base, math.Abs(v.base)), v.wins, v.pairs, v.label)
			fmt.Fprintf(&details, "  %-12s %-15s base %-12.6g change %-12.6g base IQR/median %.2f%%\n",
				wl.name, b.Name, v.base, v.change, 100*v.baseSpread)
		}
		if !correct {
			fmt.Fprint(w, " | INCORRECT")
			ok = false
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "\nmedians and spreads:\n", details.String())
	verdict := "no regression"
	if !ok {
		verdict = "REJECT: a regression, an unresolved metric or an incorrect run"
	}
	fmt.Fprintf(w, "verdict: %s\n", verdict)
	return ok, nil
}
