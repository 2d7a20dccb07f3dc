package impair

// clockStage models the static sample-clock offset between the
// transmitter's DAC and the receiver's ADC: the stream is resampled by a
// rate of 1 + ppm·1e-6, using a cubic-Lagrange fractional-delay
// interpolator in Farrow structure — the standard software-radio resampler
// (e.g. GNU Radio's fractional resampler), here with 4 taps.
//
// The stage is streaming: leftover input samples that the interpolator
// still needs (it looks one sample ahead and two behind) are carried to the
// next block, so block boundaries never appear in the output. A positive
// ppm means the receiver's clock runs fast, so the signal appears
// stretched: the stage emits slightly more samples than it consumes.
type clockStage struct {
	// step is the input step per output sample, 1/(1+ppm·1e-6).
	step float64
	// pos is the absolute fractional read position in input-stream units
	// and base the absolute input index of work[0]. Keeping both absolute
	// (instead of renormalizing pos when carrying samples) makes the
	// arithmetic — and therefore the output — bit-identical for any block
	// partitioning of the stream.
	pos  float64
	base int64
	//bhss:scratch
	work []complex128 // carried history + current block
}

// newClock returns a resampler for the given static offset in ppm.
func newClock(ppm float64) *clockStage {
	return &clockStage{
		step: 1 / (1 + ppm*1e-6),
		// The cubic interpolator reads work[i-1 .. i+2] around i =
		// floor(pos). Seed the history with one zero sample (the silence
		// before the stream) and start at pos = 1: the first output lands
		// on the first real input sample.
		work: []complex128{0},
		pos:  1,
	}
}

func (s *clockStage) Kind() Kind { return KindClock }

// lagrange4 interpolates x(-1..2) at fractional offset mu in [0,1) between
// x0 and x1 with the 4-point, 3rd-order Lagrange polynomial.
func lagrange4(xm1, x0, x1, x2 complex128, mu float64) complex128 {
	// Farrow coefficients of the cubic Lagrange interpolator.
	c0 := x0
	c1 := x1 - xm1/3 - x0/2 - x2/6
	c2 := (xm1+x1)/2 - x0
	c3 := (x2-xm1)/6 + (x0-x1)/2
	m := complex(mu, 0)
	return ((c3*m+c2)*m+c1)*m + c0
}

//bhss:hotpath
func (s *clockStage) ProcessAppend(dst, src []complex128) []complex128 {
	work := s.work
	work = append(work, src...)
	pos, step, base := s.pos, s.step, s.base
	for {
		ip := int64(pos) // pos >= 0 always, so truncation == floor
		i := int(ip - base)
		if i < 1 || i+2 >= len(work) {
			break
		}
		mu := pos - float64(ip)
		dst = append(dst, lagrange4(work[i-1], work[i], work[i+1], work[i+2], mu))
		pos += step
	}
	// Carry the samples the interpolator may still need: everything from
	// floor(pos)-1 onward.
	discard := int64(pos) - 1 - base
	if discard < 0 {
		discard = 0
	}
	if discard > int64(len(work)) {
		discard = int64(len(work))
	}
	n := copy(work, work[discard:])
	s.work = work[:n]
	s.pos = pos
	s.base = base + discard
	return dst
}
