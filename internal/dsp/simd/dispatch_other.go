//go:build !amd64

package simd

func detect() Mode { return Generic }

func bind() {}

func boxMuller(dst []complex128, u, v []float64, gain float64) {
	boxMullerGeneric(dst, u, v, gain)
}
