package jammer

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"bhss/internal/hop"
	"bhss/internal/spec"
)

// Spec grammar (documented in README.md and EXPERIMENTS.md): one spec
// names any adversary in the zoo, so every jammer is reachable from the
// bhssjam/bhssbench command lines and the arms-race sweep. The lexical
// rules every spec grammar shares are stated once, in DESIGN.md §11 "Spec
// grammar", and implemented by internal/spec. The keys, in canonical order:
//
//	jam=<kind>       required: bandlimited | tone | sweep | hopping
//	                 | reactive | multitone | adaptive
//	bw=<MHz>         two-sided bandwidth (bandlimited; default 2.5)
//	freq=<MHz>       tone center frequency (tone; default 0)
//	span=<MHz>       chirp span (sweep; default 10)
//	period=<samples> chirp period (sweep; default 4096)
//	pattern=<name>   hop distribution over the paper's bandwidth set:
//	                 linear | exponential | parabolic (hopping;
//	                 default parabolic)
//	dwell=<samples>  samples per hop (hopping; default 4096)
//	delay=<samples>  reaction delay τ (followers; default 512)
//	sense=<samples>  sense window, power of two >= 64 (followers;
//	                 default 512)
//	tones=<n>        tone count (multitone; default 4, max sense/8)
//	memory=<0|1>     carry tuning across bursts (followers; default 0,
//	                 except adaptive: 1)
//	duty=<p>[:<len>] duty cycle: on-fraction p in (0,1] over a period of
//	                 len samples (default 4096). Non-follower kinds only —
//	                 gating a sensing adversary would break its Jam
//	                 alignment. duty=1 is identity and omitted.
//	power=<linear>   average transmit power (default 1)
//	seed=<uint64>    seed override (default: the seed passed to Build)
//
// Frequencies and bandwidths are in the same unit as Build's sample rate
// (MHz against 20 MS/s, the repo convention). Keys that do not apply to
// the kind, malformed numbers and out-of-range values are errors.
// ParseSpec(String()) reproduces the config exactly (the round-trip
// property FuzzParseJamSpec pins).

// Spec limits: a hostile spec must not make Build allocate unbounded
// memory or spin a degenerate emitter.
const (
	maxSpecSamples = 1 << 24 // delay, dwell, period, sense
	maxSpecPower   = 1e12
	maxSpecMHz     = 1e6
	minSenseWindow = 64
)

// Kind defaults, shared by ParseSpec (filling) and String (omitting).
const (
	defaultBWMHz   = 2.5
	defaultSpanMHz = 10.0
	defaultPeriod  = 4096
	defaultDwell   = 4096
	defaultDelay   = 512
	defaultSense   = 512
	defaultTones   = 4
	defaultPattern = "parabolic"
)

// SpecConfig is the parsed form of a jammer spec string.
type SpecConfig struct {
	// Kind names the adversary: bandlimited, tone, sweep, hopping,
	// reactive, multitone or adaptive.
	Kind string

	BWMHz   float64 // bandlimited
	FreqMHz float64 // tone
	SpanMHz float64 // sweep
	Period  int     // sweep
	Pattern string  // hopping
	Dwell   int     // hopping

	Delay  int  // followers
	Sense  int  // followers
	Tones  int  // multitone
	Memory bool // followers

	// Duty gates the emitter: on-fraction DutyOn over DutyPeriod samples.
	// DutyOn == 1 means no gating.
	DutyOn     float64
	DutyPeriod int

	Power float64

	Seed    uint64
	HasSeed bool
}

// followerKind reports whether the kind is a sensing (TxAware) adversary.
func followerKind(kind string) bool {
	return kind == "reactive" || kind == "multitone" || kind == "adaptive"
}

// defaultMemory is the kind's Memory default: the adaptive jammer keeps its
// learned mixture across bursts by construction.
func defaultMemory(kind string) bool { return kind == "adaptive" }

// specKeyAllowed lists which keys apply to which kind (jam, duty, power and
// seed apply everywhere except duty on followers).
func specKeyAllowed(kind, key string) bool {
	switch key {
	case "jam", "power", "seed":
		return true
	case "duty":
		return !followerKind(kind)
	case "bw":
		return kind == "bandlimited"
	case "freq":
		return kind == "tone"
	case "span", "period":
		return kind == "sweep"
	case "pattern", "dwell":
		return kind == "hopping"
	case "delay", "sense", "memory":
		return followerKind(kind)
	case "tones":
		return kind == "multitone"
	}
	return false
}

// ParseSpec parses a jammer spec string, filling kind defaults so the
// returned config is fully resolved. It never panics, whatever the input.
func ParseSpec(spec string) (SpecConfig, error) {
	c := SpecConfig{
		BWMHz: defaultBWMHz, SpanMHz: defaultSpanMHz, Period: defaultPeriod,
		Pattern: defaultPattern, Dwell: defaultDwell,
		Delay: defaultDelay, Sense: defaultSense, Tones: defaultTones,
		DutyOn: 1, DutyPeriod: defaultPeriod, Power: 1,
	}
	keys, err := c.grammar().Parse(spec)
	if err == nil {
		err = c.resolveKind(keys)
	}
	if err != nil {
		return SpecConfig{}, err
	}
	return c, nil
}

// resolveKind applies the rules that depend on the kind, once every key
// has parsed: jam= is required, keys must apply to the kind, memory
// defaults per kind, multitone needs the sense resolution for its tones,
// and duty=1 drops its period so the canonical form round-trips.
func (c *SpecConfig) resolveKind(keys []string) error {
	if c.Kind == "" {
		return errors.New("jammer: spec missing jam=<kind>")
	}
	for _, key := range keys {
		if !specKeyAllowed(c.Kind, key) {
			return fmt.Errorf("jammer: key %q does not apply to kind %q", key, c.Kind)
		}
	}
	if !slices.Contains(keys, "memory") {
		c.Memory = defaultMemory(c.Kind)
	}
	if c.Sense&(c.Sense-1) != 0 {
		return fmt.Errorf("jammer: sense=%d must be a power of two", c.Sense)
	}
	if c.Kind == "multitone" && c.Tones > c.Sense/8 {
		return fmt.Errorf("jammer: tones=%d exceeds sense resolution (max %d for sense=%d)",
			c.Tones, c.Sense/8, c.Sense)
	}
	if c.DutyOn == 1 {
		c.DutyPeriod = defaultPeriod
	}
	return nil
}

// String renders the config in canonical spec form: jam= first, fixed key
// order, kind defaults omitted. ParseSpec(String()) reproduces the config.
func (c SpecConfig) String() string { return c.grammar().Format() }

// grammar binds the jammer grammar's fields to c, in canonical order. Keys
// that do not apply to c's kind sit at their defaults, so Format omits them.
func (c *SpecConfig) grammar() spec.Grammar {
	mhz := func(key string, p *float64, lo, def float64) spec.Field {
		return spec.Float(key, p, lo, maxSpecMHz, def)
	}
	samples := func(key string, p *int, lo, def int) spec.Field {
		return spec.Int(key, p, lo, maxSpecSamples, def)
	}
	duty := spec.Pair("duty", spec.Float("", &c.DutyOn, spec.Positive, 1, 1), samples("", &c.DutyPeriod, 2, defaultPeriod))
	return spec.Grammar{Pkg: "jammer", Noun: "jammer", Fields: []spec.Field{
		spec.Enum("jam", &c.Kind, "", "bandlimited", "tone", "sweep", "hopping", "reactive", "multitone", "adaptive"),
		mhz("bw", &c.BWMHz, spec.Positive, defaultBWMHz),
		mhz("freq", &c.FreqMHz, -maxSpecMHz, 0),
		mhz("span", &c.SpanMHz, spec.Positive, defaultSpanMHz),
		samples("period", &c.Period, 2, defaultPeriod),
		spec.Enum("pattern", &c.Pattern, defaultPattern, "linear", "exponential", "parabolic"),
		samples("dwell", &c.Dwell, 1, defaultDwell),
		samples("delay", &c.Delay, 0, defaultDelay),
		samples("sense", &c.Sense, minSenseWindow, defaultSense),
		samples("tones", &c.Tones, 1, defaultTones),
		spec.Bool("memory", &c.Memory, defaultMemory(c.Kind)),
		// duty renders "p" alone at the default period, and nothing at p=1.
		{Key: "duty", Set: duty.Set, Get: func() (string, bool) {
			val := strconv.FormatFloat(c.DutyOn, 'g', -1, 64)
			if c.DutyPeriod != defaultPeriod {
				val += ":" + strconv.Itoa(c.DutyPeriod)
			}
			return val, c.DutyOn != 1
		}},
		spec.Float("power", &c.Power, 0, maxSpecPower, 1),
		spec.Seed("seed", &c.Seed, &c.HasSeed),
	}}
}

// Build constructs the configured jammer for a medium running at
// sampleRateMHz (the repo convention: 20 = 20 MS/s). The spec's seed= key,
// when present, overrides the seed argument. Follower kinds return a
// TxAware adversary; callers that only Emit get its hears-silence behavior.
func (c SpecConfig) Build(sampleRateMHz float64, seed uint64) (Source, error) {
	if sampleRateMHz <= 0 || math.IsNaN(sampleRateMHz) || math.IsInf(sampleRateMHz, 0) {
		return nil, fmt.Errorf("jammer: sample rate %v MHz must be positive and finite", sampleRateMHz)
	}
	if c.HasSeed {
		seed = c.Seed
	}
	var src Source
	var err error
	switch c.Kind {
	case "bandlimited":
		if c.BWMHz > sampleRateMHz {
			return nil, fmt.Errorf("jammer: bw=%g MHz exceeds sample rate %g", c.BWMHz, sampleRateMHz)
		}
		src, err = NewBandlimited(c.BWMHz/sampleRateMHz, c.Power, seed)
	case "tone":
		src, err = NewTone(c.FreqMHz/sampleRateMHz, c.Power)
	case "sweep":
		if c.SpanMHz > sampleRateMHz {
			return nil, fmt.Errorf("jammer: span=%g MHz exceeds sample rate %g", c.SpanMHz, sampleRateMHz)
		}
		src, err = NewSweep(c.SpanMHz/sampleRateMHz, c.Period, c.Power)
	case "hopping":
		var p hop.Pattern
		p, err = hop.ParsePattern(c.Pattern)
		if err != nil {
			return nil, err
		}
		var dist hop.Distribution
		dist, err = hop.NewDistribution(p, hop.DefaultBandwidths())
		if err != nil {
			return nil, err
		}
		src, err = NewHopping(dist, sampleRateMHz, c.Dwell, c.Power, seed)
	case "reactive":
		var r *Reactive
		r, err = NewReactive(c.Delay, c.Sense, c.Power, seed)
		if err == nil {
			r.Memory = c.Memory
			src = r
		}
	case "multitone":
		var m *Multitone
		m, err = NewMultitone(c.Tones, c.Delay, c.Sense, c.Power, seed)
		if err == nil {
			m.Memory = c.Memory
			src = m
		}
	case "adaptive":
		var a *Adaptive
		a, err = NewAdaptive(c.Delay, c.Sense, c.Power, seed)
		if err == nil {
			a.Memory = c.Memory
			src = a
		}
	default:
		return nil, fmt.Errorf("jammer: spec has no kind (use ParseSpec)")
	}
	if err != nil {
		return nil, err
	}
	if c.DutyOn < 1 && !followerKind(c.Kind) {
		return NewPulsed(src, c.DutyOn, c.DutyPeriod)
	}
	return src, nil
}

// NewFromSpec parses spec and builds the jammer in one step; the common
// entry point for the cmd tools' -jam flags.
func NewFromSpec(spec string, sampleRateMHz float64, seed uint64) (Source, error) {
	cfg, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return cfg.Build(sampleRateMHz, seed)
}
