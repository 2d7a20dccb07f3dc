package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bhss/internal/experiment"
	"bhss/internal/obs"
	"bhss/internal/resultstore"
)

// openStore opens a campaign store in a fresh temporary directory.
func openStore(t *testing.T) *resultstore.Store {
	t.Helper()
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// quickKey is the run configuration every campaign in these tests shares:
// records of one experiment under it form one series across revisions.
func quickKey(rev string) resultstore.Key {
	return resultstore.Key{GitRev: rev, Scale: "quick", Seed: 1}
}

func advantage(db float64) []resultstore.Metric {
	return []resultstore.Metric{{Name: "adv_db", Value: db, Unit: "dB", HigherIsBetter: true}}
}

// anchorAndCompare stores an anchored fig13 record at 5.454 dB, then runs a
// later revision's -compare leg at adv_db and returns what it flagged.
func anchorAndCompare(t *testing.T, advDB float64) []string {
	t.Helper()
	st := openStore(t)
	base := &campaign{key: quickKey("aaaa"), store: st, anchor: true}
	if err := base.finish("fig13", advantage(5.454), false); err != nil {
		t.Fatal(err)
	}
	cur := &campaign{key: quickKey("bbbb"), cmp: st}
	if err := cur.finish("fig13", advantage(advDB), false); err != nil {
		t.Fatal(err)
	}
	return cur.regressed
}

// TestCompareFlagsDropBeyondTolerance: the -store-anchor then -compare legs
// name an experiment whose adv_db fell by more than the 0.2 dB tolerance.
func TestCompareFlagsDropBeyondTolerance(t *testing.T) {
	if got := anchorAndCompare(t, 5.454-0.3); len(got) != 1 || got[0] != "fig13" {
		t.Fatalf("regressed = %v, want [fig13]", got)
	}
}

// TestCompareToleratesDropWithinTolerance: a 0.1 dB drop passes the gate.
func TestCompareToleratesDropWithinTolerance(t *testing.T) {
	if got := anchorAndCompare(t, 5.454-0.1); len(got) != 0 {
		t.Fatalf("regressed = %v, want none", got)
	}
}

// TestCompareWithoutAnchorFails: comparing against a store that holds no
// anchored record of the series is an error, not a silent pass.
func TestCompareWithoutAnchorFails(t *testing.T) {
	st := openStore(t)
	unanchored := &campaign{key: quickKey("aaaa"), store: st}
	if err := unanchored.finish("fig13", advantage(5.454), false); err != nil {
		t.Fatal(err)
	}
	cur := &campaign{key: quickKey("bbbb"), cmp: st}
	err := cur.finish("fig13", advantage(5.454), false)
	if err == nil || !strings.Contains(err.Error(), "no anchored baseline") {
		t.Fatalf("err = %v, want the no-anchored-baseline error", err)
	}
}

// TestAddKeepsDriverMetrics: the record add builds carries the obs-derived
// sweep observables, except where the driver reported a metric of the same
// name itself (fidelity's own packet_loss wins over the derived one).
func TestAddKeepsDriverMetrics(t *testing.T) {
	st := openStore(t)
	met := obs.NewPipeline()
	c := &campaign{key: quickKey("aaaa"), met: met, store: st}
	before := c.counters()
	met.Exp.Frames.Add(10)
	met.Exp.FramesLost.Add(2)
	met.Exp.Points.Add(2)
	met.Exp.LockMicroSum.Add(1_800_000)
	res := experiment.Result{ID: "fidelity", Metrics: []experiment.Metric{{Name: "packet_loss", Value: 0.5}}}
	if err := c.add(res, before); err != nil {
		t.Fatal(err)
	}
	recs := st.Records()
	if len(recs) != 1 {
		t.Fatalf("%d records stored, want 1", len(recs))
	}
	if m, _ := recs[0].Metric("packet_loss"); m.Value != 0.5 {
		t.Errorf("packet_loss = %v, want the driver's 0.5 (derived would be 0.2)", m.Value)
	}
	if m, ok := recs[0].Metric("carrier_lock"); !ok || m.Value != 0.9 {
		t.Errorf("carrier_lock = %v (present %v), want the derived 0.9", m.Value, ok)
	}
	if recs[0].Obs == nil {
		t.Error("stored record lacks its obs snapshot")
	}
	// A theoretical result has no metrics and stores nothing.
	if err := c.add(experiment.Fig7(), c.counters()); err != nil || st.Len() != 1 {
		t.Fatalf("theory result: err %v, %d records, want nil and 1", err, st.Len())
	}
}

// TestHeadlineNeedsExactlyOneMeasuredRecord: -headline-out refuses runs with
// zero or two measured records and writes the one record without its obs
// snapshot otherwise.
func TestHeadlineNeedsExactlyOneMeasuredRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "headline.json")
	c := &campaign{key: quickKey("aaaa"), met: obs.NewPipeline(), store: openStore(t)}
	if err := c.writeHeadline(path); err == nil {
		t.Fatal("no measured record: want an error")
	}
	if err := c.finish("fig13", advantage(5.454), true); err != nil {
		t.Fatal(err)
	}
	if c.headline.Obs == nil {
		t.Fatal("record built without its obs snapshot")
	}
	if err := c.writeHeadline(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec resultstore.Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Obs != nil || rec.Key.Experiment != "fig13" {
		t.Fatalf("headline = %+v, want the fig13 record without obs", rec)
	}
	if err := c.finish("fig14", advantage(3), true); err != nil {
		t.Fatal(err)
	}
	if err := c.writeHeadline(path); err == nil {
		t.Fatal("two measured records: want an error")
	}
	if err := (&campaign{}).writeHeadline(path); err == nil {
		t.Fatal("no store or compare leg: want an error")
	}
}

// TestRunDispatchesTheory: the instant experiments resolve to their
// drivers, and an unknown id is an error.
func TestRunDispatchesTheory(t *testing.T) {
	sc := experiment.QuickScale()
	for _, id := range []string{"fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "table1", "patternstats"} {
		res, err := run(id, sc, false)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want := id
		if id == "patternstats" {
			want = "table1"
		}
		if res.ID != want || len(res.Tables)+len(res.Series) == 0 {
			t.Errorf("%s: result %q with %d tables and %d series", id, res.ID, len(res.Tables), len(res.Series))
		}
	}
	if _, err := run("fig99", sc, false); err == nil {
		t.Fatal("unknown experiment: want an error")
	}
}

// TestGitRevNeverEmpty: the record revision falls back to "unknown" rather
// than an empty key field.
func TestGitRevNeverEmpty(t *testing.T) {
	if rev := gitRev(); rev == "" {
		t.Fatal("empty revision")
	}
}
