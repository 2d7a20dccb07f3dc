package bhss

import (
	"fmt"

	"bhss/internal/channel"
	"bhss/internal/dsp"
)

// ChannelModel describes the simulated medium between the transmitter and
// receiver of a SimLink: an AWGN floor.
type ChannelModel struct {
	// NoiseVar is the AWGN variance per sample (relative to the
	// unit-power transmit signal).
	NoiseVar float64
	// Seed drives the channel's noise.
	Seed uint64
}

// SimLink wires a Transmitter and Receiver through a simulated channel with
// an optional jammer — the one-call way to run jamming experiments against
// the public API.
type SimLink struct {
	Tx     *Transmitter
	Rx     *Receiver
	Jammer Jammer
	noise  *channel.AWGN
	met    *Observer

	// rxBuf is the burst buffer Send encodes into and the channel acts on
	// in place, reused across frames.
	//bhss:scratch
	rxBuf []complex128
}

// WithObserver attaches a metrics pipeline to the link's transmitter,
// receiver and channel (nil detaches) and returns the link for chaining.
// Observation never alters what the link transmits or decodes.
func (l *SimLink) WithObserver(p *Observer) *SimLink {
	l.met = p
	l.Tx.SetObserver(p)
	l.Rx.SetObserver(p)
	if p != nil {
		l.noise.SetObserver(&p.Chan)
	} else {
		l.noise.SetObserver(nil)
	}
	return l
}

// NewSimLink builds the transmitter/receiver pair for cfg and connects them
// through the channel model. jam may be nil for an unjammed link.
func NewSimLink(cfg Config, ch ChannelModel, jam Jammer) (*SimLink, error) {
	if ch.NoiseVar < 0 {
		return nil, fmt.Errorf("bhss: negative noise variance")
	}
	tx, err := NewTransmitter(cfg)
	if err != nil {
		return nil, err
	}
	rx, err := NewReceiver(cfg)
	if err != nil {
		return nil, err
	}
	return &SimLink{
		Tx:     tx,
		Rx:     rx,
		Jammer: jam,
		noise:  channel.NewAWGN(ch.NoiseVar, ch.Seed^0x5eed),
	}, nil
}

// Send pushes one payload through the link and returns what the receiver
// decoded (an error for a lost frame), with the receiver's diagnostics.
func (l *SimLink) Send(payload []byte) ([]byte, *RxStats, error) {
	burst, err := l.Tx.EncodeFrameInto(l.rxBuf[:0], payload)
	if err != nil {
		return nil, nil, err
	}
	l.rxBuf = burst.Samples
	rx := l.rxBuf
	if l.Jammer != nil {
		j := l.Jammer.Emit(len(rx))
		dsp.AddTo(rx, j)
		if l.met != nil {
			l.met.Chan.JamSamples.Add(int64(len(j)))
		}
	}
	l.noise.Add(rx)
	return l.Rx.DecodeBurst(rx)
}

// Run sends n frames of the given payload and returns the packet loss rate
// (frames whose decode failed or mismatched).
func (l *SimLink) Run(payload []byte, n int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("bhss: need at least one frame")
	}
	lost := 0
	for i := 0; i < n; i++ {
		got, _, err := l.Send(payload)
		if err != nil || string(got) != string(payload) {
			lost++
		}
	}
	return float64(lost) / float64(n), nil
}
