package impair

import (
	"bhss/internal/obs"
)

// Chain applies a fixed sequence of impairment stages. A nil *Chain or a
// chain with no stages is bit-transparent: ProcessAppend copies the input
// unchanged. Chains are deterministic in their construction seed and are
// not safe for concurrent use (like the DSP blocks they sit between).
type Chain struct {
	stages []Stage
	// ping/pong scratch between interior stages; the final stage appends
	// straight into the caller's buffer. out backs the Process convenience
	// wrapper.
	//bhss:scratch
	ping, pong, out []complex128
	met             *obs.ImpairMetrics
}

// NewChain assembles the given stages in order. Callers normally go
// through SpecConfig.Chain, which also fixes the canonical stage order.
func NewChain(stages ...Stage) *Chain {
	return &Chain{stages: stages}
}

// SetObserver attaches impairment metrics (nil detaches). Recording never
// touches the sample stream or any stage's random state.
func (c *Chain) SetObserver(m *obs.ImpairMetrics) {
	if c == nil {
		return
	}
	c.met = m
}

// Len returns the number of stages (0 for a nil chain).
func (c *Chain) Len() int {
	if c == nil {
		return 0
	}
	return len(c.stages)
}

// ProcessAppend pushes one block through every stage, appends the impaired
// samples to dst and returns the extended slice. The output length may
// differ slightly from the input length when a clock-skew stage is present.
//
//bhss:hotpath
func (c *Chain) ProcessAppend(dst, src []complex128) []complex128 {
	if c == nil || len(c.stages) == 0 {
		return append(dst, src...)
	}
	var sw obs.Stopwatch
	if c.met != nil {
		sw = obs.Start()
		c.met.In.Add(int64(len(src)))
	}
	cur := src
	last := len(c.stages) - 1
	for i, st := range c.stages {
		if c.met != nil {
			c.met.Stage[st.Kind()].Add(int64(len(cur)))
		}
		if i == last {
			dst = st.ProcessAppend(dst, cur)
			break
		}
		if i&1 == 0 {
			ping := c.ping[:0]
			ping = st.ProcessAppend(ping, cur)
			c.ping = ping
			cur = ping
		} else {
			pong := c.pong[:0]
			pong = st.ProcessAppend(pong, cur)
			c.pong = pong
			cur = pong
		}
	}
	if c.met != nil {
		c.met.Out.Add(int64(len(dst)))
		c.met.ChainNS.ObserveSince(sw)
	}
	return dst
}

// Process is ProcessAppend into an internal buffer for callers that consume
// the result before the next call. The returned slice aliases chain scratch
// (or, for an empty chain, the input) and is only valid until the next
// Process or ProcessAppend call.
//
//bhss:hotpath
//bhss:scratchview output aliases chain scratch, valid until the next call
func (c *Chain) Process(src []complex128) []complex128 {
	if c == nil || len(c.stages) == 0 {
		return src
	}
	out := c.out[:0]
	out = c.ProcessAppend(out, src)
	c.out = out
	return out
}
