package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"bhss/internal/iqstream"
	"bhss/internal/obs"
)

const (
	hubBlock = 4096
	// hubWindow is phase B's blocks in flight.
	hubWindow = 16
	// seqWrap keeps every sequence value an integer below 2^24, which the
	// wire format's float32 carries exactly.
	seqWrap = 1 << 24
	// hubLink keeps the workload off link 0, whose legacy hooks are not
	// under test.
	hubLink = 1
	// hubDeadline bounds the receives of every 256 blocks, so a wedged hub
	// fails the run instead of hanging it.
	hubDeadline = 60 * time.Second
)

// sequence is the hub workload's payload: sample k of the stream is
// (re0+k, im0+3k) modulo seqWrap. With NoiseVar 0 and unit gain the hub's
// mix must return it bit for bit.
type sequence struct{ re0, im0 uint64 }

func (s sequence) at(k uint64) complex128 {
	return complex(float64((s.re0+k)%seqWrap), float64((s.im0+3*k)%seqWrap))
}

func (s sequence) fill(dst []complex128, k0 uint64) {
	for i := range dst {
		dst[i] = s.at(k0 + uint64(i))
	}
}

// verify checks a received block against the stream from sample k0.
func (s sequence) verify(blk []complex128, k0 uint64) error {
	for i, v := range blk {
		//bhss:allow(floateq) exact-value check is the point: the payload is integer-valued and any mix arithmetic touching it is a bug
		if want := s.at(k0 + uint64(i)); v != want {
			return fmt.Errorf("sample %d = %v, want %v", k0+uint64(i), v, want)
		}
	}
	return nil
}

// hubRig is one hub with one link: a transmitter and a receiver
// connection driven by the benchmark's single load goroutine.
type hubRig struct {
	hub    *iqstream.Hub
	served chan error
	met    *obs.HubMetrics
	tx, rx *iqstream.Client
	seq    sequence
	// sent and got count stream samples sent and verified so far.
	sent, got uint64
	//bhss:scratch
	block []complex128
	// bad counts blocks that failed verification.
	bad      int64
	firstBad error
}

func newHubRig(seed uint64) (*hubRig, float64, error) {
	met := new(obs.HubMetrics)
	hub, err := iqstream.NewHub("127.0.0.1:0", iqstream.HubConfig{BlockSize: hubBlock, Seed: seed, Metrics: met})
	if err != nil {
		return nil, 0, err
	}
	r := &hubRig{
		hub: hub, served: make(chan error, 1), met: met,
		seq:   sequence{re0: seed % seqWrap, im0: (seed * 7919) % seqWrap},
		block: make([]complex128, hubBlock),
	}
	go func() { r.served <- hub.Serve() }()
	addr := hub.Addr().String()
	t0 := now()
	r.rx, err = iqstream.DialRxLink(addr, iqstream.LinkOpts{Link: hubLink})
	if err != nil {
		r.close()
		return nil, 0, err
	}
	r.tx, err = iqstream.DialTxLink(addr, 0, iqstream.LinkOpts{Link: hubLink})
	if err != nil {
		r.close()
		return nil, 0, err
	}
	return r, float64(now()-t0) / 2, nil
}

// close hangs up both clients, stops the hub and waits for Serve to return.
func (r *hubRig) close() {
	if r.tx != nil {
		r.tx.Close()
	}
	if r.rx != nil {
		r.rx.Close()
	}
	r.hub.Close()
	<-r.served
}

// send transmits the next block of the stream.
func (r *hubRig) send() error {
	r.seq.fill(r.block, r.sent)
	r.sent += hubBlock
	return r.tx.Send(r.block)
}

// recv reads and verifies the next block's worth of samples. A block that
// differs from the stream counts as bad; only transport errors are
// returned.
func (r *hubRig) recv() error {
	if r.got%(256*hubBlock) == 0 {
		//bhss:allow(detrand) transport deadline: wall clock bounds the receives and never feeds the program
		if err := r.rx.SetRecvDeadline(time.Now().Add(hubDeadline)); err != nil {
			return err
		}
	}
	for want := r.got + hubBlock; r.got < want; {
		blk, err := r.rx.Recv()
		if err != nil {
			return err
		}
		if err := r.seq.verify(blk, r.got); err != nil {
			r.bad++
			if r.firstBad == nil {
				r.firstBad = err
			}
		}
		r.got += uint64(len(blk))
	}
	return nil
}

// setupHub starts the hub, dials both ends and runs a lockstep warm-up,
// reps times; the last rig is kept and setup_s is the median.
func setupHub(p plan, seed uint64) (*hubRig, float64, float64, error) {
	var rig *hubRig
	times, dials := make([]float64, 0, p.setupReps), make([]float64, 0, p.setupReps)
	for rep := 0; rep < p.setupReps; rep++ {
		if rig != nil {
			rig.close()
		}
		speed, t0 := hostSpeed(), now()
		r, dial, err := newHubRig(seed)
		if err != nil {
			return nil, 0, 0, err
		}
		rig = r
		for i := 0; i < p.hubWarm; i++ {
			if err := rig.send(); err != nil {
				rig.close()
				return nil, 0, 0, err
			}
			if err := rig.recv(); err != nil {
				rig.close()
				return nil, 0, 0, err
			}
		}
		times = append(times, seconds(now()-t0)*speed)
		dials = append(dials, dial)
	}
	return rig, median(times), median(dials), nil
}

// hubPass is what the two timed phases measured.
type hubPass struct {
	// rttNS holds phase A's per-block round trips.
	rttNS []float64
	// roundMSPS holds phase B's verified throughput per round.
	roundMSPS []float64
	speeds    []float64
	mallocs   uint64
}

// runHubPhases runs phase A (lockstep, one block in flight) and phase B
// (hubWindow blocks in flight) on rig. The phases alternate in p.rounds
// rounds, so each spans the whole run and the host's slow spells weigh on
// both alike; phase B drains its window at the end of every round. Each
// round starts by measuring the host's speed, and its timings are scaled by
// it.
func runHubPhases(rig *hubRig, p plan, tr *tracer) (hubPass, error) {
	pass := hubPass{rttNS: make([]float64, 0, p.hubLockstep)}
	perA := (p.hubLockstep + p.rounds - 1) / p.rounds
	perB := (p.hubStreamed + p.rounds - 1) / p.rounds
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	for a, sent, done := 0, 0, 0; a < p.hubLockstep || done < p.hubStreamed; {
		speed := hostSpeed()
		pass.speeds = append(pass.speeds, speed)
		for end := min(a+perA, p.hubLockstep); a < end; a++ {
			t0 := now()
			f := tr.begin("hub.block", -1, a)
			s := tr.begin("iqstream.send", f, a)
			err := rig.send()
			tr.end(s)
			if err != nil {
				return pass, err
			}
			s = tr.begin("iqstream.recv_wait", f, a)
			err = rig.recv()
			tr.end(s)
			tr.end(f)
			if err != nil {
				return pass, err
			}
			pass.rttNS = append(pass.rttNS, float64(now()-t0)*speed)
		}
		roundStart, end := now(), min(done+perB, p.hubStreamed)
		for first := done; done < end; {
			for sent < end && sent-done < hubWindow {
				s := tr.begin("iqstream.send.streamed", -1, p.hubLockstep+sent)
				err := rig.send()
				tr.end(s)
				if err != nil {
					return pass, err
				}
				sent++
			}
			s := tr.begin("iqstream.recv.streamed", -1, p.hubLockstep+done)
			err := rig.recv()
			tr.end(s)
			if err != nil {
				return pass, err
			}
			if done++; done == end {
				pass.roundMSPS = append(pass.roundMSPS, float64((end-first)*hubBlock)/seconds(now()-roundStart)/1e6/speed)
			}
		}
	}
	runtime.ReadMemStats(&ms)
	pass.mallocs = ms.Mallocs - mallocs0
	return pass, nil
}

func runHub(p plan, opt options) (*outcome, error) {
	o := newOutcome()
	rig, setup, dial, err := setupHub(p, opt.seed)
	if err != nil {
		return nil, err
	}
	pass, err := runHubPhases(rig, p, nil)
	rig.close()
	if err != nil {
		return nil, err
	}
	blocks := int64(p.hubLockstep + p.hubStreamed)
	o.attempted, o.failed = blocks, rig.bad
	o.check(rig.firstBad == nil, "hub delivered %d corrupt blocks; first: %v", rig.bad, rig.firstBad)
	o.check(rig.met.RxQueueDrops.Load() == 0, "hub dropped %d blocks", rig.met.RxQueueDrops.Load())
	o.e2e["setup_s"] = setup
	o.e2e["msps"] = median(pass.roundMSPS)
	o.e2e["latency_ms_p50"] = median(pass.rttNS) / 1e6
	o.e2e["allocs_per_op"] = float64(pass.mallocs) / float64(blocks)
	o.layer["iqstream.dial_us"] = dial / 1e3
	o.layer["hub.block_rtt_us_p99"] = quantile(pass.rttNS, 0.99) / 1e3
	o.layer["host.speed"] = median(pass.speeds)
	o.layer["hub.mixed_blocks"] = float64(rig.met.MixedBlocks.Load())
	o.layer["hub.rx_queue_drops"] = float64(rig.met.RxQueueDrops.Load())
	o.layer["hub.queue_high_water"] = rig.met.QueueHighWater.Load()
	if !opt.trace {
		return o, nil
	}

	trig, _, _, err := setupHub(plan{setupReps: 1, hubWarm: p.hubWarm}, opt.seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runHubPhases(trig, p, tr)
	trig.close()
	if err != nil {
		return nil, err
	}
	o.check(trig.bad == 0, "traced pass delivered %d corrupt blocks", trig.bad)
	total := tr.totals()
	o.layer["iqstream.send_us"] = total["iqstream.send"] / float64(p.hubLockstep) / 1e3
	o.layer["iqstream.recv_wait_us"] = total["iqstream.recv_wait"] / float64(p.hubLockstep) / 1e3
	o.layer["trace.overhead"] = 1 - median(traced.roundMSPS)/median(pass.roundMSPS)
	codec, err := codecNS(p.codecBlocks, rig.seq)
	if err != nil {
		return nil, err
	}
	o.layer["iqstream.codec_us"] = codec / 1e3
	return o, writeSpans(opt.traceOut, tr)
}

// codecNS times WriteBlock plus ReadBlock of one block through memory and
// returns the mean per block in ns.
func codecNS(blocks int, seq sequence) (float64, error) {
	var buf bytes.Buffer
	w, r := iqstream.NewWriter(&buf), iqstream.NewReader(&buf)
	block := make([]complex128, hubBlock)
	var total int64
	for b := 0; b < blocks; b++ {
		k0 := uint64(b * hubBlock)
		seq.fill(block, k0)
		t0 := now()
		if err := w.WriteBlock(block); err != nil {
			return 0, err
		}
		got, err := r.ReadBlock()
		total += now() - t0
		if err != nil {
			return 0, err
		}
		if err := seq.verify(got, k0); err != nil {
			return 0, fmt.Errorf("codec round trip: %w", err)
		}
	}
	return float64(total) / float64(blocks), nil
}
