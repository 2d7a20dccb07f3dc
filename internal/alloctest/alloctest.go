// Package alloctest is the runtime half of the zero-alloc hot-path
// contract. The static hotpath analyzer (internal/lint) flags allocations
// in //bhss:hotpath functions and the unannotated callees they statically
// reach at review time; the AssertZero helper cross-validates whole call
// trees at test time, catching allocation through interface and
// function-value calls, conversions and hidden growth that static analysis
// deliberately leaves to the runtime.
package alloctest

import "testing"

// AssertZero runs f once to reach steady state (first calls may legitimately
// grow scratch buffers and warm caches), then asserts f performs zero heap
// allocations per call.
func AssertZero(t *testing.T, name string, f func()) {
	t.Helper()
	f()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %v allocs/op in steady state, want 0", name, avg)
	}
}
