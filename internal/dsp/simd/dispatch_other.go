//go:build !amd64 && !arm64

package simd

func detect() Mode { return Generic }

func bind(Mode) {}

func boxMuller(dst []complex128, u, v []float64, gain float64) {
	boxMullerGeneric(dst, u, v, gain)
}
