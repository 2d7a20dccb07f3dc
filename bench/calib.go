package main

import (
	"math"
	"math/cmplx"
	"time"
)

// The host this benchmark shares runs 1.4-1.8x slower in spells lasting
// seconds, and its level drifts by tens of percent over minutes, which no
// median over one run removes. Every timing is therefore scaled by the
// host's speed, measured right beside it: a fixed pure-Go kernel timed
// between rounds (or, for the sweep, by a sampler while it runs). The kernel
// shares no code with the program, so a change to the program cannot move
// it. Scaled timings read as on the reference host.

// calRefNS is the kernel's time on the reference host (2-core 2.1 GHz x86-64
// VM, go1.24), where the host speed reads 1.
const calRefNS = 2.2e6

// calBuf is the kernel's 64 KiB working set.
var calBuf [4096]complex128

// calSink keeps the kernel's result live.
var calSink complex128

// hostSpeed times the calibration kernel once and returns the host's speed
// relative to the reference host: below 1 when the host is slow. A timing t
// scales to t*speed, a rate r to r/speed.
func hostSpeed() float64 {
	t0 := now()
	var acc complex128
	for r := 0; r < 20; r++ {
		for i := range calBuf {
			calBuf[i] = complex(float64(i&15), float64(i%7))
		}
		calFFT(calBuf[:])
		for i := range calBuf {
			acc += calBuf[i] * calBuf[(i*7)&(len(calBuf)-1)]
		}
	}
	calSink = acc
	return calRefNS / float64(now()-t0)
}

// calFFT is an in-place radix-2 FFT (len(x) a power of two).
func calFFT(x []complex128) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for l := 2; l <= n; l <<= 1 {
		w := cmplx.Exp(complex(0, -2*math.Pi/float64(l)))
		for i := 0; i < n; i += l {
			wk := complex(1, 0)
			for k := 0; k < l/2; k++ {
				u, v := x[i+k], x[i+k+l/2]*wk
				x[i+k], x[i+k+l/2] = u+v, u-v
				wk *= w
			}
		}
	}
}

// sampleSpeed measures the host speed every quarter second until stop
// closes, for work that cannot pause between rounds. It runs beside the
// work, so each sample is the speed of whichever core it lands on.
func sampleSpeed(stop <-chan struct{}) []float64 {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	var speeds []float64
	for {
		select {
		case <-stop:
			if len(speeds) == 0 {
				speeds = append(speeds, hostSpeed())
			}
			return speeds
		case <-tick.C:
			speeds = append(speeds, hostSpeed())
		}
	}
}
