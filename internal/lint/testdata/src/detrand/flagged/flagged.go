// Package flagged exercises the detrand rules: forbidden PRNG imports,
// wall-clock reads in simulation code, and order-sensitive accumulation
// while ranging over a map.
package flagged

import (
	"math/rand"           // want "import of math/rand is forbidden"
	randv2 "math/rand/v2" // want "import of math/rand/v2 is forbidden"
	"time"
)

func seedFromClock() int64 {
	return time.Now().UnixNano() // want "time.Now"
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since"
}

func remaining(deadline time.Time) time.Duration {
	return time.Until(deadline) // want "time.Until"
}

func drift() float64 {
	return rand.Float64() + randv2.Float64()
}

func sumGains(gains map[int]float64) float64 {
	total := 0.0
	for _, g := range gains {
		total += g // want "accumulating into total"
	}
	return total
}

var _ = seedFromClock
var _ = elapsed
var _ = remaining
var _ = drift
var _ = sumGains
