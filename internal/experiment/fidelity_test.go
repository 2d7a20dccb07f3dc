package experiment

import (
	"strings"
	"testing"
)

// TestFidelitySweepSmoke runs the hardware-fidelity sweep on one bandwidth
// at its two extreme levels: the ideal front end must decode everything
// and the broken one, whose CFO lies beyond the carrier loop's pull-in
// range, must lose frames. A level whose spec the impairment grammar
// rejects fails the sweep before it measures anything.
func TestFidelitySweepSmoke(t *testing.T) {
	sc := tinyScale()
	levels := []FidelityLevel{
		{Name: "ideal", Spec: ""},
		{Name: "broken", Spec: "cfo=8e3,ppm=80,phnoise=-70,quant=6"},
	}
	res, err := FidelitySweep(sc, []float64{10}, levels)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "fidelity" || len(res.Tables) != 2 || len(res.Series) != 1 {
		t.Fatalf("unexpected result shape: id %q, %d tables, %d series", res.ID, len(res.Tables), len(res.Series))
	}
	plr := res.Series[0].Y
	if len(plr) != len(levels) {
		t.Fatalf("plr series %v, want one point per level", plr)
	}
	if plr[0] != 0 {
		t.Errorf("ideal front end lost %v of its frames at 25 dB SNR", plr[0])
	}
	if plr[1] <= plr[0] {
		t.Errorf("broken front end lost %v of its frames, ideal %v: want more", plr[1], plr[0])
	}
	if len(res.Metrics) != 2 || res.Metrics[0].Name != "packet_loss" || res.Metrics[1].Name != "carrier_lock" {
		t.Fatalf("metrics = %+v", res.Metrics)
	}

	_, err = FidelitySweep(sc, []float64{10}, []FidelityLevel{{Name: "echo", Spec: "mpath=3:-10:90"}})
	if err == nil || !strings.Contains(err.Error(), `"echo"`) {
		t.Fatalf("level with a rejected spec: err = %v, want an error naming the level", err)
	}
}
