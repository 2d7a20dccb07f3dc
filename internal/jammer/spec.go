package jammer

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"bhss/internal/hop"
	"bhss/internal/spec"
)

// Spec grammar (documented in README.md and EXPERIMENTS.md): one spec
// names any adversary in the zoo, so every jammer is reachable from the
// bhssjam/bhssbench command lines and the arms-race sweep. The lexical
// rules every spec grammar shares are stated once, in DESIGN.md §11 "Spec
// grammar", and implemented by internal/spec. The keys, in canonical order:
//
//	jam=<kind>       required: bandlimited | hopping | reactive
//	                 | multitone | adaptive
//	bw=<MHz>         two-sided bandwidth (bandlimited; default 2.5)
//	pattern=<name>   hop distribution over the paper's bandwidth set:
//	                 linear | exponential | parabolic (hopping;
//	                 default parabolic)
//	dwell=<samples>  samples per hop (hopping; default 4096)
//	delay=<samples>  reaction delay τ (followers; default 512)
//	sense=<samples>  sense window, power of two >= 64 (followers;
//	                 default 512)
//	memory=<0|1>     carry tuning across bursts (followers; default 0,
//	                 except adaptive: 1)
//	power=<linear>   average transmit power (default 1)
//
// Bandwidths are in the same unit as Build's sample rate (MHz against
// 20 MS/s, the repo convention). Keys that do not apply to the kind,
// malformed numbers and out-of-range values are errors.
// ParseSpec(String()) reproduces the config exactly (the round-trip
// property FuzzParseJamSpec pins).

// Spec limits: a hostile spec must not make Build allocate unbounded
// memory or spin a degenerate emitter.
const (
	maxSpecSamples = 1 << 24 // delay, dwell, sense
	maxSpecPower   = 1e12
	maxSpecMHz     = 1e6
	minSenseWindow = 64
)

// Kind defaults, shared by ParseSpec (filling) and String (omitting).
const (
	defaultBWMHz   = 2.5
	defaultDwell   = 4096
	defaultDelay   = 512
	defaultSense   = 512
	defaultPattern = "parabolic"
)

// SpecConfig is the parsed form of a jammer spec string.
type SpecConfig struct {
	// Kind names the adversary: bandlimited, hopping, reactive, multitone
	// or adaptive.
	Kind string

	BWMHz   float64 // bandlimited
	Pattern string  // hopping
	Dwell   int     // hopping

	Delay  int  // followers
	Sense  int  // followers
	Memory bool // followers

	Power float64
}

// followerKind reports whether the kind is a sensing (TxAware) adversary.
func followerKind(kind string) bool {
	return kind == "reactive" || kind == "multitone" || kind == "adaptive"
}

// defaultMemory is the kind's Memory default: the adaptive jammer keeps its
// learned mixture across bursts by construction.
func defaultMemory(kind string) bool { return kind == "adaptive" }

// specKeyAllowed lists which keys apply to which kind (jam and power apply
// everywhere).
func specKeyAllowed(kind, key string) bool {
	switch key {
	case "jam", "power":
		return true
	case "bw":
		return kind == "bandlimited"
	case "pattern", "dwell":
		return kind == "hopping"
	case "delay", "sense", "memory":
		return followerKind(kind)
	}
	return false
}

// ParseSpec parses a jammer spec string, filling kind defaults so the
// returned config is fully resolved. It never panics, whatever the input.
func ParseSpec(spec string) (SpecConfig, error) {
	c := SpecConfig{
		BWMHz: defaultBWMHz, Pattern: defaultPattern, Dwell: defaultDwell,
		Delay: defaultDelay, Sense: defaultSense, Power: 1,
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
// defaults per kind, and the sense window is a power of two.
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
	return nil
}

// String renders the config in canonical spec form: jam= first, fixed key
// order, kind defaults omitted. ParseSpec(String()) reproduces the config.
func (c SpecConfig) String() string { return c.grammar().Format() }

// grammar binds the jammer grammar's fields to c, in canonical order. Keys
// that do not apply to c's kind sit at their defaults, so Format omits them.
func (c *SpecConfig) grammar() spec.Grammar {
	samples := func(key string, p *int, lo, def int) spec.Field {
		return spec.Int(key, p, lo, maxSpecSamples, def)
	}
	return spec.Grammar{Pkg: "jammer", Noun: "jammer", Fields: []spec.Field{
		spec.Enum("jam", &c.Kind, "", "bandlimited", "hopping", "reactive", "multitone", "adaptive"),
		spec.Float("bw", &c.BWMHz, spec.Positive, maxSpecMHz, defaultBWMHz),
		spec.Enum("pattern", &c.Pattern, defaultPattern, "linear", "exponential", "parabolic"),
		samples("dwell", &c.Dwell, 1, defaultDwell),
		samples("delay", &c.Delay, 0, defaultDelay),
		samples("sense", &c.Sense, minSenseWindow, defaultSense),
		spec.Bool("memory", &c.Memory, defaultMemory(c.Kind)),
		spec.Float("power", &c.Power, 0, maxSpecPower, 1),
	}}
}

// Build constructs the configured jammer for a medium running at
// sampleRateMHz (the repo convention: 20 = 20 MS/s). Follower kinds return
// a TxAware adversary; callers that only Emit get its hears-silence
// behavior.
func (c SpecConfig) Build(sampleRateMHz float64, seed uint64) (Source, error) {
	if sampleRateMHz <= 0 || math.IsNaN(sampleRateMHz) || math.IsInf(sampleRateMHz, 0) {
		return nil, fmt.Errorf("jammer: sample rate %v MHz must be positive and finite", sampleRateMHz)
	}
	var src Source
	var err error
	switch c.Kind {
	case "bandlimited":
		if c.BWMHz > sampleRateMHz {
			return nil, fmt.Errorf("jammer: bw=%g MHz exceeds sample rate %g", c.BWMHz, sampleRateMHz)
		}
		src, err = NewBandlimited(c.BWMHz/sampleRateMHz, c.Power, seed)
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
		m, err = NewMultitone(c.Delay, c.Sense, c.Power, seed)
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
