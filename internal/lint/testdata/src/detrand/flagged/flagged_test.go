package flagged

import (
	"math/rand" // want "import of math/rand is forbidden"
	"testing"
)

// Tests are exempt from the wall-clock and map-range rules, never from the
// math/rand import ban.
func TestDrift(t *testing.T) {
	_ = rand.Float64()
}
