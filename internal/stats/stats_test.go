package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-30, -3, 0, 3, 10, 20, 25.4} {
		if got := DB(FromDB(db)); !almostEq(got, db, 1e-12) {
			t.Fatalf("DB(FromDB(%v)) = %v", db, got)
		}
	}
}

func TestDBKnownValues(t *testing.T) {
	if !almostEq(DB(100), 20, 1e-12) {
		t.Fatalf("DB(100) = %v, want 20", DB(100))
	}
	if !almostEq(FromDB(30), 1000, 1e-9) {
		t.Fatalf("FromDB(30) = %v, want 1000", FromDB(30))
	}
	if !almostEq(AmplitudeFromDB(20), 10, 1e-12) {
		t.Fatalf("AmplitudeFromDB(20) = %v, want 10", AmplitudeFromDB(20))
	}
}

func TestQuickDBInverse(t *testing.T) {
	f := func(raw float64) bool {
		db := math.Mod(raw, 60)
		if math.IsNaN(db) {
			return true
		}
		return almostEq(DB(FromDB(db)), db, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFindThreshold(t *testing.T) {
	target := 13.37
	x, err := FindThreshold(0, 100, 1e-6, func(x float64) bool { return x >= target })
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x, target, 1e-5) {
		t.Fatalf("threshold = %v, want %v", x, target)
	}
}

func TestFindThresholdAtLowEdge(t *testing.T) {
	x, err := FindThreshold(5, 10, 1e-6, func(x float64) bool { return true })
	if err != nil || x != 5 {
		t.Fatalf("got (%v, %v), want (5, nil)", x, err)
	}
}

func TestFindThresholdNoSolution(t *testing.T) {
	_, err := FindThreshold(0, 10, 1e-6, func(x float64) bool { return false })
	if err != ErrNoThreshold {
		t.Fatalf("err = %v, want ErrNoThreshold", err)
	}
}

func TestFindThresholdSwappedBounds(t *testing.T) {
	x, err := FindThreshold(10, 0, 1e-6, func(x float64) bool { return x >= 4 })
	if err != nil || !almostEq(x, 4, 1e-5) {
		t.Fatalf("got (%v, %v)", x, err)
	}
}

func TestQuickFindThresholdMonotone(t *testing.T) {
	f := func(raw float64) bool {
		target := math.Mod(math.Abs(raw), 50)
		x, err := FindThreshold(0, 50, 1e-7, func(v float64) bool { return v >= target })
		return err == nil && almostEq(x, target, 1e-5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if !almostEq(xs[i], want[i], 1e-12) {
			t.Fatalf("linspace[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
	if Linspace(0, 1, 0) != nil {
		t.Fatal("n=0 should return nil")
	}
	if one := Linspace(3, 9, 1); len(one) != 1 || one[0] != 3 {
		t.Fatalf("n=1 linspace = %v", one)
	}
}

func TestLogspace(t *testing.T) {
	xs := Logspace(-2, 2, 5)
	want := []float64{0.01, 0.1, 1, 10, 100}
	for i := range want {
		if !almostEq(xs[i], want[i], 1e-9*want[i]+1e-12) {
			t.Fatalf("logspace[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
}
