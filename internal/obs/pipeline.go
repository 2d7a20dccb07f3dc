package obs

// TxMetrics counts the transmitter's work.
type TxMetrics struct {
	// Frames is the number of EncodeFrame calls.
	Frames Counter
	// Symbols and Samples total the encoded DSSS symbols and emitted
	// samples.
	Symbols, Samples Counter
}

// RxMetrics counts the receiver's work and the §4.2 control decisions.
type RxMetrics struct {
	// Bursts is the number of DecodeBurst calls; Decoded and Errors split
	// them by outcome.
	Bursts, Decoded, Errors Counter
	// Hops counts processed hop segments; Samples the consumed samples.
	Hops, Samples Counter
	// Decision counts hops per filter branch, indexed by the receiver's
	// FilterDecision values: 0 none (eq. (10) threshold), 1 low-pass
	// (eq. (4)), 2 excision/whitening (eq. (3)).
	Decision [3]Counter
}

// CacheMetrics counts hits, misses and evictions on the receiver's design
// caches (the PR 1 performance substrate this layer makes visible).
type CacheMetrics struct {
	// WelchHit/WelchMiss cover the per-segment-length reusable Welch
	// estimator cache.
	WelchHit, WelchMiss Counter
	// NotchHit/NotchMiss cover the fingerprinted excision-design cache;
	// NotchEvict counts designs dropped when the cache is cleared.
	NotchHit, NotchMiss, NotchEvict Counter
	// LowPassHit/LowPassMiss cover the per-bandwidth channel-select FIRs.
	LowPassHit, LowPassMiss Counter
	// ShapeHit/ShapeMiss cover the pulse-spectrum |G(f)|² tables.
	ShapeHit, ShapeMiss Counter
}

// NumImpairStages is the number of impairment stage kinds; it must match
// impair.NumKinds (pinned by a test in internal/impair, which cannot be
// imported here without a cycle).
const NumImpairStages = 4

// impairStageNames mirrors the impair package's Kind spec keys, in Kind
// order (also pinned by the internal/impair test).
var impairStageNames = [NumImpairStages]string{"cfo", "phnoise", "clock", "quant"}

// ImpairStageName returns the snapshot name suffix for impairment stage
// kind i ("" when out of range); internal/impair's tests pin these against
// its Kind.String values.
func ImpairStageName(i int) string {
	if i < 0 || i >= NumImpairStages {
		return ""
	}
	return impairStageNames[i]
}

// ImpairMetrics counts RF-impairment chain work (internal/impair).
type ImpairMetrics struct {
	// In and Out total the samples entering and leaving the chain; they
	// differ when a clock-skew stage resamples.
	In, Out Counter
	// Stage counts samples entering each stage kind, indexed by
	// impair.Kind.
	Stage [NumImpairStages]Counter
	// ChainNS times whole-chain block processing.
	ChainNS Histogram
}

// HubMetrics counts the virtual-air hub's transport work
// (internal/iqstream.Hub): connection lifecycle, queue pressure and the
// resilience-layer decisions (backpressure waits, slow-receiver
// evictions).
type HubMetrics struct {
	// TxAccepted and RxAccepted count completed handshakes by role;
	// HandshakeRejects counts connections refused with an ERR reply.
	TxAccepted, RxAccepted, HandshakeRejects Counter
	// MixedBlocks and MixedSamples total the mixer's output.
	MixedBlocks, MixedSamples Counter
	// TxOverflowWaits counts backpressure stalls at a transmitter's
	// pending-queue bound; TxOverflowKills counts transmitters disconnected
	// when a stall outlasted the overflow deadline.
	TxOverflowWaits, TxOverflowKills Counter
	// RxQueueDrops counts mixed blocks not delivered to a receiver whose
	// outbound queue was full; RxEvictions counts receivers disconnected
	// after a full stall budget.
	RxQueueDrops, RxEvictions Counter
	// LinksAdmitted and LinksEvicted count link-registry lifecycle
	// transitions.
	LinksAdmitted, LinksEvicted Counter
	// LinkRejectsFull counts handshakes refused with "ERR hub full" by the
	// admission cap.
	LinkRejectsFull Counter
	// RecoveredPanics counts panics contained by the per-link fault
	// isolation (a crashing mix hook or handler tears down only its own
	// session).
	RecoveredPanics Counter
	// QueueHighWater is the largest per-transmitter pending queue depth
	// observed, in samples.
	QueueHighWater Gauge
	// ActiveLinks is the current link-registry size.
	ActiveLinks Gauge
}

// NetMetrics counts client-side transport resilience events
// (internal/iqstream.ReconnectingClient and its cmd-tool callers).
type NetMetrics struct {
	// DialAttempts counts every dial (including the first); DialFailures
	// the ones that did not yield a usable link (refused, handshake error).
	DialAttempts, DialFailures Counter
	// Reconnects counts successful re-establishments after a link fault.
	Reconnects Counter
	// StreamGaps counts receive-side discontinuities reported to the
	// caller (ErrStreamGap); Reacquired counts the post-gap burst
	// re-acquisitions the caller completed.
	StreamGaps, Reacquired Counter
}

// ChanMetrics counts simulated-medium work.
type ChanMetrics struct {
	// NoiseSamples counts samples that received AWGN; JamSamples counts
	// jammer samples mixed into the medium.
	NoiseSamples, JamSamples Counter
	// MixNS times AWGN application per burst.
	MixNS Histogram
}

// PSDMetrics counts spectral estimation work (attached to the reusable
// Welch estimators).
type PSDMetrics struct {
	// Calls counts PSDInto invocations; Segments the averaged periodogram
	// segments across them.
	Calls, Segments Counter
	// EstimateNS times each PSDInto call.
	EstimateNS Histogram
}

// JamMetrics counts the estimator-follower jammers' sensing work
// (internal/jammer Reactive/Multitone/Adaptive): how often the adversary
// produced a bandwidth estimate, how often that estimate changed its
// waveform, and how often it had to hold a stale tuning because the
// sensed window carried no energy.
type JamMetrics struct {
	// Estimates counts matured sense windows (one PSD + occupied-bandwidth
	// measurement each); Retunes counts the estimates that scheduled a new
	// jamming waveform; Holds counts silent windows where the follower kept
	// its previous tuning instead.
	Estimates, Retunes, Holds Counter
	// LastBW is the most recent bandwidth estimate, in cycles/sample.
	LastBW Gauge
}

// ExpMetrics tracks experiment-harness progress: sweep cells, measurement
// points and per-point packet-loss results.
type ExpMetrics struct {
	// Cells is the total cell count of the running sweep; CellsDone the
	// completed cells — together the live progress fraction.
	Cells, CellsDone Counter
	// Points counts packet-loss measurement points; Frames and FramesLost
	// total the frames behind them.
	Points, Frames, FramesLost Counter
	// LockMicroSum accumulates each point's mean carrier-lock quality in
	// fixed-point millionths (lock ∈ [0,1], so int64 microlocks sum exactly
	// and order-independently across worker goroutines — a float
	// accumulator would make the total schedule-dependent). The derived
	// gauge exp.mean_carrier_lock reads LockMicroSum/1e6/Points.
	LockMicroSum Counter
	// LastPLR and LastSNRdB describe the most recent measurement point.
	LastPLR, LastSNRdB Gauge
	// PointNS times whole packet-loss measurement points.
	PointNS Histogram
}

// Pipeline bundles every metric of one transmitter/channel/receiver chain
// (or one experiment sweep). Construct with NewPipeline and attach via the
// SetObserver hooks; a single pipeline may be shared by many components and
// goroutines — all recording is atomic.
type Pipeline struct {
	Tx     TxMetrics
	Rx     RxMetrics
	Cache  CacheMetrics
	Chan   ChanMetrics
	Impair ImpairMetrics
	PSD    PSDMetrics
	Jam    JamMetrics
	Exp    ExpMetrics
	Hub    HubMetrics
	Net    NetMetrics
	// StageNS holds one latency histogram per pipeline stage.
	StageNS [NumStages]Histogram
	// Trace is the ring-buffer span tracer behind the stage histograms.
	Trace *Tracer

	start int64
}

// NewPipeline returns an empty pipeline with a 1024-span tracer.
func NewPipeline() *Pipeline {
	return &Pipeline{Trace: NewTracer(1024), start: Now()}
}

// RecordStage observes one completed stage execution into both the
// per-stage latency histogram and the span ring. It is allocation-free and
// nil-safe on the tracer; callers on hot paths use the deferred form:
//
//	defer p.RecordStage(obs.StageRxEstimate, obs.Start())
func (p *Pipeline) RecordStage(stage Stage, sw Stopwatch) {
	p.StageNS[stage].Observe(sw.ElapsedNS())
	p.Trace.Record(stage, sw)
}

// CounterStat is one named counter value in a snapshot.
type CounterStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeStat is one named gauge value in a snapshot.
type GaugeStat struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramStat summarizes one histogram in a snapshot. Quantiles are
// factor-of-two upper bounds (see Histogram.Quantile).
type HistogramStat struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// SnapshotSchema is the version stamped into every Snapshot. It guards the
// stored form: resultstore records and -obs streams carry snapshots across
// revisions, and a decoder can tell a layout change from data corruption.
// Bump it when a Snapshot field changes meaning or encoding — adding
// metrics under the existing lists is not a schema change.
const SnapshotSchema = 1

// Snapshot is one point-in-time reading of a pipeline: every counter, gauge
// and histogram under its documented name, the registered process globals,
// and the recent span trace. The field order is fixed, so CSV columns and
// JSON layouts are stable across snapshots of the same build, and the
// schema stamp versions the layout for durable storage (resultstore).
type Snapshot struct {
	Schema     int             `json:"schema"`
	UptimeNS   int64           `json:"uptime_ns"`
	Counters   []CounterStat   `json:"counters"`
	Gauges     []GaugeStat     `json:"gauges"`
	Histograms []HistogramStat `json:"histograms"`
	Spans      []SpanStat      `json:"spans,omitempty"`
}

// Snapshot reads the pipeline. It allocates (it is a reporting call, not a
// recording call) and may run concurrently with recording; counters are read
// one by one, so a snapshot is not a single atomic cut across metrics.
func (p *Pipeline) Snapshot() Snapshot {
	return p.snapshot(true)
}

// SnapshotLight is Snapshot without the span trace — the form the periodic
// writers use, where per-span detail would dwarf the aggregate row.
func (p *Pipeline) SnapshotLight() Snapshot {
	return p.snapshot(false)
}

func (p *Pipeline) snapshot(withSpans bool) Snapshot {
	s := Snapshot{Schema: SnapshotSchema, UptimeNS: Now() - p.start}
	c := func(name string, ctr *Counter) {
		s.Counters = append(s.Counters, CounterStat{Name: name, Value: ctr.Load()})
	}
	c("tx.frames", &p.Tx.Frames)
	c("tx.symbols", &p.Tx.Symbols)
	c("tx.samples", &p.Tx.Samples)
	c("rx.bursts", &p.Rx.Bursts)
	c("rx.decoded", &p.Rx.Decoded)
	c("rx.errors", &p.Rx.Errors)
	c("rx.hops", &p.Rx.Hops)
	c("rx.samples", &p.Rx.Samples)
	c("rx.decision.none", &p.Rx.Decision[0])
	c("rx.decision.lowpass", &p.Rx.Decision[1])
	c("rx.decision.excision", &p.Rx.Decision[2])
	c("cache.welch.hit", &p.Cache.WelchHit)
	c("cache.welch.miss", &p.Cache.WelchMiss)
	c("cache.notch.hit", &p.Cache.NotchHit)
	c("cache.notch.miss", &p.Cache.NotchMiss)
	c("cache.notch.evict", &p.Cache.NotchEvict)
	c("cache.lowpass.hit", &p.Cache.LowPassHit)
	c("cache.lowpass.miss", &p.Cache.LowPassMiss)
	c("cache.shape.hit", &p.Cache.ShapeHit)
	c("cache.shape.miss", &p.Cache.ShapeMiss)
	c("chan.noise_samples", &p.Chan.NoiseSamples)
	c("chan.jam_samples", &p.Chan.JamSamples)
	c("impair.in", &p.Impair.In)
	c("impair.out", &p.Impair.Out)
	for i := range p.Impair.Stage {
		c("impair.stage."+impairStageNames[i], &p.Impair.Stage[i])
	}
	c("psd.calls", &p.PSD.Calls)
	c("psd.segments", &p.PSD.Segments)
	c("jam.estimates", &p.Jam.Estimates)
	c("jam.retunes", &p.Jam.Retunes)
	c("jam.holds", &p.Jam.Holds)
	c("hub.tx_accepted", &p.Hub.TxAccepted)
	c("hub.rx_accepted", &p.Hub.RxAccepted)
	c("hub.handshake_rejects", &p.Hub.HandshakeRejects)
	c("hub.mixed_blocks", &p.Hub.MixedBlocks)
	c("hub.mixed_samples", &p.Hub.MixedSamples)
	c("hub.tx_overflow_waits", &p.Hub.TxOverflowWaits)
	c("hub.tx_overflow_kills", &p.Hub.TxOverflowKills)
	c("hub.rx_queue_drops", &p.Hub.RxQueueDrops)
	c("hub.rx_evictions", &p.Hub.RxEvictions)
	c("hub.links_admitted", &p.Hub.LinksAdmitted)
	c("hub.links_evicted", &p.Hub.LinksEvicted)
	c("hub.link_rejects_full", &p.Hub.LinkRejectsFull)
	c("hub.recovered_panics", &p.Hub.RecoveredPanics)
	c("net.dial_attempts", &p.Net.DialAttempts)
	c("net.dial_failures", &p.Net.DialFailures)
	c("net.reconnects", &p.Net.Reconnects)
	c("net.stream_gaps", &p.Net.StreamGaps)
	c("net.reacquired", &p.Net.Reacquired)
	c("exp.cells", &p.Exp.Cells)
	c("exp.cells_done", &p.Exp.CellsDone)
	c("exp.points", &p.Exp.Points)
	c("exp.frames", &p.Exp.Frames)
	c("exp.frames_lost", &p.Exp.FramesLost)
	c("exp.lock_micro_sum", &p.Exp.LockMicroSum)
	s.Counters = append(s.Counters, globalCounters()...)

	s.Gauges = append(s.Gauges,
		GaugeStat{Name: "exp.last_plr", Value: p.Exp.LastPLR.Load()},
		GaugeStat{Name: "exp.last_snr_db", Value: p.Exp.LastSNRdB.Load()},
		GaugeStat{Name: "hub.queue_high_water", Value: p.Hub.QueueHighWater.Load()},
		GaugeStat{Name: "hub.active_links", Value: p.Hub.ActiveLinks.Load()},
		GaugeStat{Name: "jam.last_bw", Value: p.Jam.LastBW.Load()},
	)
	// Derived mean carrier lock across every measurement point so far.
	if pts := p.Exp.Points.Load(); pts > 0 {
		s.Gauges = append(s.Gauges, GaugeStat{
			Name:  "exp.mean_carrier_lock",
			Value: float64(p.Exp.LockMicroSum.Load()) / 1e6 / float64(pts),
		})
	} else {
		s.Gauges = append(s.Gauges, GaugeStat{Name: "exp.mean_carrier_lock"})
	}
	// Derived throughput gauges: decoded bursts and experiment frames per
	// second of pipeline uptime.
	if secs := float64(s.UptimeNS) / 1e9; secs > 0 {
		s.Gauges = append(s.Gauges,
			GaugeStat{Name: "rx.decoded_per_sec", Value: float64(p.Rx.Decoded.Load()) / secs},
			GaugeStat{Name: "exp.frames_per_sec", Value: float64(p.Exp.Frames.Load()) / secs},
		)
	} else {
		s.Gauges = append(s.Gauges,
			GaugeStat{Name: "rx.decoded_per_sec"},
			GaugeStat{Name: "exp.frames_per_sec"},
		)
	}

	h := func(name string, hist *Histogram) {
		s.Histograms = append(s.Histograms, HistogramStat{
			Name:  name,
			Count: hist.Count(),
			Sum:   hist.Sum(),
			Mean:  hist.Mean(),
			P50:   hist.Quantile(0.50),
			P90:   hist.Quantile(0.90),
			P99:   hist.Quantile(0.99),
			Max:   hist.Max(),
		})
	}
	for i := range p.StageNS {
		h("stage."+Stage(i).String()+"_ns", &p.StageNS[i])
	}
	h("chan.mix_ns", &p.Chan.MixNS)
	h("impair.chain_ns", &p.Impair.ChainNS)
	h("psd.estimate_ns", &p.PSD.EstimateNS)
	h("exp.point_ns", &p.Exp.PointNS)

	if withSpans {
		s.Spans = p.Trace.Spans()
	}
	return s
}
