// Command bhssbench regenerates the tables and figures of "Jamming
// Mitigation by Randomized Bandwidth Hopping" (CoNEXT 2015).
//
// Usage:
//
//	bhssbench -exp fig7            # one experiment
//	bhssbench -exp all             # everything (minutes at -scale quick)
//	bhssbench -exp fig13 -scale full -csv out.csv
//
// Experiments: fig5, fig7, fig8, fig9, fig10, fig11, fig13, fig14, table1,
// table1opt, table2, arms, ablation-dwell, ablation-taps.
// Theoretical figures (7-11, table1) are instant; the measured ones (13,
// 14, table2, ablations) drive the full sample-level pipeline and take
// seconds to minutes depending on -scale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"bhss/internal/dsp/simd"
	"bhss/internal/experiment"
	"bhss/internal/impair"
	"bhss/internal/obs"
	"bhss/internal/resultstore"
	"bhss/internal/soak"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id (fig5..fig14, table1, table1opt, table2, arms, ablation-dwell, ablation-taps, fidelity, soak, capacity, all)")
		impairSpec  = flag.String("impair", "", "RF front-end impairment spec applied to every measured trial, e.g. cfo=2e3,ppm=20,phnoise=-80,quant=8 (empty = ideal; headline figures are pinned with it empty)")
		chaosSpec   = flag.String("chaos", "", "fault-injection spec for -exp soak, e.g. resetevery=700,trunc=0.001,seed=9 (empty = clean link)")
		soakSecs    = flag.Float64("soak-seconds", 0, "simulated seconds of traffic for -exp soak (0 = default)")
		scale       = flag.String("scale", "quick", "measurement scale: quick or full")
		csvPath     = flag.String("csv", "", "also write raw series to this CSV file")
		seed        = flag.Uint64("seed", 1, "experiment seed")
		frames      = flag.Int("frames", 0, "override frames per measurement point")
		list        = flag.Bool("list", false, "list experiments and exit")
		benchOut    = flag.String("bench-out", "", "for -exp throughput: also write the machine-readable result to this JSON file (the committed baseline is BENCH_link.json)")
		obsPath     = flag.String("obs", "", "write periodic pipeline-metric snapshots to this file, one JSON line each")
		obsInterval = flag.Duration("obs-interval", 2*time.Second, "snapshot writer period")
		progress    = flag.Duration("progress", 0, "print live sweep progress to stderr at this period (0 = off)")
		debugAddr   = flag.String("debug-addr", "", "serve /debug/bhss, /debug/vars and /debug/pprof on this address (empty = off)")
		storeDir    = flag.String("store", "", "append every measured result of this run to the campaign store in this directory (created if missing)")
		storeAnchor = flag.Bool("store-anchor", false, "with -store: mark each appended record as its series' regression baseline")
		compareDir  = flag.String("compare", "", "diff every measured result against the last anchored record of the same key in this store's directory; exit 1 past tolerances")
		serveAddr   = flag.String("serve", "", "after the run, serve the result-store trajectory dashboard on this address (requires -store or -compare; combine with -exp none to only serve)")
		headlineOut = flag.String("headline-out", "", "write the run's single measured headline record (metrics without the obs snapshot) to this JSON file, e.g. the committed BENCH_fig13.json")
	)
	flag.Parse()

	if *list {
		fmt.Println(`experiments (paper artifact -> runtime class):
  table1          hop pattern distributions + §6.4.1 averages  (instant)
  table1opt       Monte Carlo maximin re-derivation            (instant)
  fig5            hopping waveform and per-hop spectrum        (instant)
  fig7, fig8      SNR improvement bound (+ zoom)               (instant)
  fig9            BER vs Eb/N0, BHSS vs DSSS/FHSS              (instant)
  fig10           BER vs jammer bandwidth                      (instant)
  fig11           normalized throughput vs Eb/N0               (instant)
  fig13           measured power advantage vs bandwidth ratio  (minutes)
  fig14           measured power advantage per hop pattern     (minutes)
  table2          hopping signal vs hopping jammer             (minutes)
  arms            advantage vs jammer reaction delay × smarts  (minutes)
  ablation-dwell  power advantage vs symbols per hop           (minutes)
  ablation-taps   power advantage vs filter tap budget         (minutes)
  fidelity        packet loss vs front-end impairment severity (minutes)
  soak            transport-resilience soak over a chaos proxy (seconds)
  capacity        concurrent verified links vs real-time factor (seconds)
  throughput      end-to-end link rate                         (seconds)
  all             every paper artifact above (soak, capacity and throughput excluded)`)
		return
	}

	var sc experiment.Scale
	switch *scale {
	case "quick":
		sc = experiment.QuickScale()
	case "full":
		sc = experiment.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	sc.Seed = *seed
	if *frames > 0 {
		sc.Frames = *frames
	}
	if _, err := impair.ParseSpec(*impairSpec); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	sc.Impair = *impairSpec

	// Campaign storage: open the stores before any experiment runs, so a bad
	// path fails in seconds instead of after a minutes-long sweep.
	camp := &campaign{
		key: resultstore.Key{
			GitRev: gitRev(),
			Scale:  *scale,
			Seed:   *seed,
			Impair: *impairSpec,
			Chaos:  *chaosSpec,
		},
		anchor: *storeAnchor,
	}
	if *storeDir != "" {
		st, err := resultstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "store: %v\n", err)
			os.Exit(1)
		}
		defer st.Close()
		camp.store = st
	}
	if *storeAnchor && camp.store == nil {
		fmt.Fprintln(os.Stderr, "-store-anchor requires -store")
		os.Exit(2)
	}
	if *compareDir != "" {
		if *compareDir == *storeDir {
			camp.cmp = camp.store
		} else {
			st, err := resultstore.Open(*compareDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "compare: %v\n", err)
				os.Exit(1)
			}
			defer st.Close()
			camp.cmp = st
		}
	}
	if *serveAddr != "" && camp.store == nil && camp.cmp == nil {
		fmt.Fprintln(os.Stderr, "-serve requires -store or -compare to name the store directory")
		os.Exit(2)
	}

	// One pipeline observes every experiment of the invocation; it feeds
	// the snapshot writer, the progress ticker, the debug endpoint and the
	// campaign store, and never alters the measurements themselves.
	met := obs.NewPipeline()
	if *obsPath != "" || *progress > 0 || *debugAddr != "" || camp.active() {
		sc.Obs = met
		camp.met = met
	}
	var writer *obs.SnapshotWriter
	if *obsPath != "" {
		f, err := os.Create(*obsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		writer = obs.NewSnapshotWriter(f, met)
		writer.SetHeader(obs.Header{
			Schema:    obs.SnapshotSchema,
			GitRev:    camp.key.GitRev,
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			SIMD:      simd.Active().String(),
			Seed:      *seed,
		})
		writer.Start(*obsInterval)
		defer func() {
			if err := writer.Stop(); err != nil {
				fmt.Fprintf(os.Stderr, "obs: %v\n", err)
			}
		}()
	}
	if *progress > 0 {
		ticker := time.NewTicker(*progress)
		defer ticker.Stop()
		// Stop does not close ticker.C, so a bare range would park this
		// goroutine forever once the run ends; the done channel bounds it.
		progressDone := make(chan struct{})
		defer close(progressDone)
		go func() {
			for {
				select {
				case <-progressDone:
					return
				case <-ticker.C:
					fmt.Fprintf(os.Stderr, "%s\n", experiment.Progress(met))
				}
			}
		}()
	}
	if *debugAddr != "" {
		srv, addr, err := obs.ServeDebug(*debugAddr, met)
		if err != nil {
			fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/bhss\n", addr)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{
			"table1", "table1opt", "fig5", "fig7", "fig8", "fig9",
			"fig10", "fig11", "fig13", "fig14", "table2",
		}
	}
	if *exp == "none" {
		// Run nothing: the serve-only mode for browsing an existing store.
		ids = nil
	}
	var allResults []experiment.Result
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "throughput" {
			// The library performance check, not a paper artifact: measure
			// the end-to-end link on both receive paths and optionally
			// write the machine-readable baseline (BENCH_link.json).
			res, err := experiment.LinkThroughput(camp.key.GitRev, simd.Active().String())
			if err != nil {
				fmt.Fprintf(os.Stderr, "throughput: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(res.String())
			if *benchOut != "" {
				// Stale-rev guard: a baseline regenerated at a different
				// revision than it previously recorded must say so — the CI
				// bench gate is meaningless when the committed rev is stale.
				if prev := baselineRev(*benchOut); prev != "" && prev != res.GitRev {
					fmt.Fprintf(os.Stderr,
						"bench-out: replacing baseline measured at %s with numbers from %s (prior rev recorded as baseline_git_rev)\n",
						prev, res.GitRev)
					res.BaselineRev = prev
				}
				if res.GitRev == "unknown" || strings.HasSuffix(res.GitRev, "-dirty") {
					fmt.Fprintf(os.Stderr,
						"bench-out: warning: build revision is %q — commit first so the baseline pins a real rev\n",
						res.GitRev)
				}
				f, err := os.Create(*benchOut)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench-out: %v\n", err)
					os.Exit(1)
				}
				werr := res.WriteJSON(f)
				if cerr := f.Close(); werr == nil {
					werr = cerr
				}
				if werr != nil {
					fmt.Fprintf(os.Stderr, "bench-out: %v\n", werr)
					os.Exit(1)
				}
				fmt.Printf("baseline written to %s\n", *benchOut)
			}
			if err := camp.addThroughput(res); err != nil {
				fmt.Fprintf(os.Stderr, "throughput: %v\n", err)
				os.Exit(1)
			}
			continue
		}
		if id == "soak" {
			// The soak is a transport check, not a paper artifact: it
			// reports via its own summary line and has no Result series.
			rep, err := soak.Run(soak.Config{
				Seed:       sc.Seed,
				ChaosSpec:  *chaosSpec,
				SimSeconds: *soakSecs,
				Metrics:    sc.Obs,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, format+"\n", args...)
				},
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "soak: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(rep.String())
			continue
		}
		before := camp.counters()
		res, err := run(id, sc, *scale == "full")
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		if err := res.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "render: %v\n", err)
			os.Exit(1)
		}
		allResults = append(allResults, res)
		if err := camp.add(res, before); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			os.Exit(1)
		}
		for _, res := range allResults {
			if err := res.WriteCSV(f); err != nil {
				f.Close()
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
				os.Exit(1)
			}
		}
		// Close errors matter on a write target: a full disk surfaces here.
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("raw series written to %s\n", *csvPath)
	}
	if *headlineOut != "" {
		if err := camp.writeHeadline(*headlineOut); err != nil {
			fmt.Fprintf(os.Stderr, "headline-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("headline record written to %s\n", *headlineOut)
	}
	if len(camp.regressed) > 0 {
		fmt.Fprintf(os.Stderr, "regression gate failed: %s\n", strings.Join(camp.regressed, ", "))
		os.Exit(1)
	}
	if *serveAddr != "" {
		st := camp.store
		if st == nil {
			st = camp.cmp
		}
		h, err := resultstore.NewDashboard(st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "result dashboard on http://%s/\n", ln.Addr())
		if err := http.Serve(ln, h); err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
	}
}

// campaign drives this invocation's result-store legs: append (-store),
// anchor (-store-anchor), diff against the anchored baseline (-compare) and
// the -headline-out export. Inactive (no flags) it is a no-op passthrough.
type campaign struct {
	key    resultstore.Key // rev + run configuration; Experiment filled per result
	met    *obs.Pipeline
	store  *resultstore.Store // -store target (nil = off)
	cmp    *resultstore.Store // -compare baseline source (may alias store)
	anchor bool
	// headline is the most recent record built, for -headline-out.
	headline *resultstore.Record
	measured int
	// regressed lists experiments whose compare leg failed the gate.
	regressed []string
}

func (c *campaign) active() bool { return c.store != nil || c.cmp != nil }

// expCounters is the pipeline's experiment-counter state; the delta across
// one driver call yields that run's packet loss and mean carrier lock.
type expCounters struct{ frames, lost, points, lockMicro int64 }

func (c *campaign) counters() expCounters {
	if c.met == nil {
		return expCounters{}
	}
	return expCounters{
		frames:    c.met.Exp.Frames.Load(),
		lost:      c.met.Exp.FramesLost.Load(),
		points:    c.met.Exp.Points.Load(),
		lockMicro: c.met.Exp.LockMicroSum.Load(),
	}
}

// add records one finished experiment: the driver's canonical metrics plus
// link observables derived from the obs counter deltas of this run, then the
// store/anchor/compare legs. Theoretical results (no metrics) are skipped —
// closed-form curves cannot regress at fixed code.
func (c *campaign) add(res experiment.Result, before expCounters) error {
	if !c.active() || len(res.Metrics) == 0 {
		return nil
	}
	metrics := make([]resultstore.Metric, 0, len(res.Metrics)+2)
	for _, m := range res.Metrics {
		metrics = append(metrics, resultstore.Metric(m))
	}
	// Sweep-wide observables. The driver's own metric of the same name wins
	// (fidelity reports its grid means directly).
	after := c.counters()
	if df := after.frames - before.frames; df > 0 {
		metrics = addMissing(metrics, resultstore.Metric{
			Name:  "packet_loss",
			Value: float64(after.lost-before.lost) / float64(df),
		})
	}
	if dp := after.points - before.points; dp > 0 {
		metrics = addMissing(metrics, resultstore.Metric{
			Name:           "carrier_lock",
			Value:          float64(after.lockMicro-before.lockMicro) / 1e6 / float64(dp),
			HigherIsBetter: true,
		})
	}
	return c.finish(res.ID, metrics, true)
}

// addThroughput records the link benchmark. Its metrics are machine-
// dependent, so none of them gate (see DefaultTolerances); the store keeps
// the trajectory visible.
func (c *campaign) addThroughput(res experiment.LinkBenchResult) error {
	if !c.active() {
		return nil
	}
	metrics := make([]resultstore.Metric, 0, 2)
	for _, m := range res.StoreMetrics() {
		metrics = append(metrics, resultstore.Metric(m))
	}
	return c.finish("throughput", metrics, false)
}

// addMissing appends m unless a metric of the same name is already present.
func addMissing(ms []resultstore.Metric, m resultstore.Metric) []resultstore.Metric {
	for _, have := range ms {
		if have.Name == m.Name {
			return ms
		}
	}
	return append(ms, m)
}

// finish builds the record and runs the store, anchor and compare legs.
func (c *campaign) finish(expID string, metrics []resultstore.Metric, withObs bool) error {
	c.measured++
	key := c.key
	key.Experiment = expID
	rec := resultstore.Record{
		Kind:    resultstore.KindResult,
		UnixMS:  time.Now().UnixMilli(), //bhss:allow(detrand) record timestamp: it dates the record for the dashboard and never feeds a metric or the comparison
		Key:     key,
		Metrics: metrics,
	}
	if withObs && c.met != nil {
		snap := c.met.SnapshotLight()
		rec.Obs = &snap
	}
	if c.store != nil {
		stored, err := c.store.Append(rec)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		rec = stored
		verb := "stored"
		if c.anchor {
			if err := c.store.Anchor(stored.Seq); err != nil {
				return fmt.Errorf("store-anchor: %w", err)
			}
			verb = "stored and anchored"
		}
		fmt.Printf("%s %s as seq %d\n", verb, stored.Key, stored.Seq)
	}
	c.headline = &rec
	if c.cmp != nil {
		base, ok := c.cmp.LastAnchored(key.Series())
		if !ok {
			return fmt.Errorf("compare: no anchored baseline for %s (run once with -store <dir> -store-anchor first)", key.Series())
		}
		d := resultstore.Compare(rec, base, nil)
		if err := d.Render(os.Stdout); err != nil {
			return err
		}
		if d.Regressed() {
			c.regressed = append(c.regressed, expID)
		}
	}
	return nil
}

// writeHeadline exports the run's single measured record as indented JSON
// (the committed BENCH_fig13.json format). The obs snapshot stays out: the
// export is a human-diffable baseline, not a drill-down artifact.
func (c *campaign) writeHeadline(path string) error {
	if !c.active() {
		return fmt.Errorf("requires -store or -compare")
	}
	if c.measured != 1 || c.headline == nil {
		return fmt.Errorf("needs exactly one measured experiment in the run, got %d", c.measured)
	}
	rec := *c.headline
	rec.Obs = nil
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// baselineRev reads the git_rev recorded in an existing BENCH baseline file
// ("" when the file is absent or unreadable — a fresh baseline has nothing
// to guard against).
func baselineRev(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	var old experiment.LinkBenchResult
	if json.Unmarshal(data, &old) != nil {
		return ""
	}
	return old.GitRev
}

// gitRev resolves the source revision for the benchmark record: the VCS
// stamp when the binary was built with one, otherwise `git rev-parse` (the
// `go run` path), otherwise "unknown".
func gitRev() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func run(id string, sc experiment.Scale, full bool) (experiment.Result, error) {
	switch id {
	case "capacity":
		return experiment.CapacitySweep(sc, experiment.DefaultCapacityOptions(full))
	case "fig5":
		return experiment.Fig5(sc.Seed), nil
	case "fig7":
		return experiment.Fig7(), nil
	case "fig8":
		return experiment.Fig8(), nil
	case "fig9":
		return experiment.Fig9(), nil
	case "fig10":
		return experiment.Fig10(), nil
	case "fig11":
		return experiment.Fig11(), nil
	case "fig13":
		return experiment.Fig13(sc, nil)
	case "fig14":
		return experiment.Fig14(sc, nil)
	case "table1":
		return experiment.Table1(), nil
	case "table1opt":
		return experiment.OptimizedParabolic(20000, sc.Seed), nil
	case "table2":
		return experiment.Table2(sc)
	case "arms":
		return experiment.ArmsRaceSweep(sc, nil, nil)
	case "ablation-dwell":
		return experiment.AblationHopDwell(sc, nil)
	case "ablation-taps":
		return experiment.AblationFilterTaps(sc, nil)
	case "fidelity":
		return experiment.FidelitySweep(sc, nil, nil)
	default:
		return experiment.Result{}, fmt.Errorf("unknown experiment %q", id)
	}
}
