// Package spec is the one lexer and formatter behind the repo's key=value
// spec grammars: impair's channel impairments, jammer's adversaries and
// iqstream's chaos faults. A grammar is a table of Fields bound to the
// config struct they fill; Parse applies a spec string to the table and
// Format renders the table back in canonical form. The lexical rules are
// stated once, in DESIGN.md §11 "Spec grammar".
package spec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Field is one key of a grammar, bound to the config value it reads and
// writes.
type Field struct {
	Key string
	// Set parses val into the config.
	Set func(val string) error
	// Get renders the config value; set is false when the value is at its
	// default, and Format then omits the key.
	Get func() (val string, set bool)
}

// Grammar is one spec language. Pkg prefixes its error messages and Noun
// names it in them ("iqstream: unknown chaos key ..."). Fields are in
// canonical order.
type Grammar struct {
	Pkg, Noun string
	Fields    []Field
}

// Parse applies a spec to the grammar's fields and returns the keys it set,
// in spec order. The spec is a comma-separated list of key=value entries;
// whitespace around the spec, entries, keys and values is trimmed, and the
// empty spec sets nothing. Empty entries, entries without '=', unknown keys,
// duplicate keys and values a field rejects are errors. It never panics,
// whatever the input.
func (g Grammar) Parse(spec string) ([]string, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var keys []string
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("%s: empty entry in %s spec %q", g.Pkg, g.Noun, spec)
		}
		key, val, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("%s: %s entry %q is not key=value", g.Pkg, g.Noun, entry)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		i := slices.IndexFunc(g.Fields, func(f Field) bool { return f.Key == key })
		if i < 0 {
			return nil, fmt.Errorf("%s: unknown %s key %q", g.Pkg, g.Noun, key)
		}
		if slices.Contains(keys, key) {
			return nil, fmt.Errorf("%s: duplicate %s key %q", g.Pkg, g.Noun, key)
		}
		if err := g.Fields[i].Set(val); err != nil {
			return nil, fmt.Errorf("%s: %s=%q: %v", g.Pkg, key, val, err)
		}
		keys = append(keys, key)
	}
	return keys, nil
}

// Format renders the fields in canonical form: table order, fields at their
// default omitted. Parsing the result reproduces the config.
func (g Grammar) Format() string {
	var b strings.Builder
	for _, f := range g.Fields {
		if val, set := f.Get(); set {
			if b.Len() > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.Key + "=" + val)
		}
	}
	return b.String()
}

// Positive, as a Float's lower bound, admits exactly the finite floats
// above zero: it is the smallest positive float64.
const Positive = math.SmallestNonzeroFloat64

// Float is a finite float64 in [lo, hi]; an infinite bound leaves that
// side unbounded. Format omits it at def.
func Float(key string, p *float64, lo, hi, def float64) Field {
	return Field{
		Key: key,
		Set: func(val string) error {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
				return errors.New("not a finite number")
			}
			if f < lo || f > hi {
				low := "[" + formatFloat(lo)
				if lo == Positive {
					low = "(0"
				}
				return fmt.Errorf("out of %s, %s]", low, formatFloat(hi))
			}
			*p = f
			return nil
		},
		Get: func() (string, bool) {
			//bhss:allow(floateq) canonical form omits exactly the default, and ParseFloat(FormatFloat(x)) == x, so the round trip is exact
			return formatFloat(*p), *p != def
		},
	}
}

// Int is an integer in [lo, hi]. Format omits it at def.
func Int(key string, p *int, lo, hi, def int) Field {
	return Field{
		Key: key,
		Set: func(val string) error {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return errors.New("not an integer")
			}
			if n < int64(lo) || n > int64(hi) {
				return fmt.Errorf("out of [%d, %d]", lo, hi)
			}
			*p = int(n)
			return nil
		},
		Get: func() (string, bool) { return strconv.Itoa(*p), *p != def },
	}
}

// Pair is "a[:b]": the value splits at its first ':' into the keyless
// fields a and b, and b keeps its value when there is no ':'. Format
// renders "a:b" unless both are at their defaults.
func Pair(key string, a, b Field) Field {
	return Field{
		Key: key,
		Set: func(val string) error {
			first, second, has := strings.Cut(val, ":")
			if err := a.Set(first); err != nil || !has {
				return err
			}
			return b.Set(second)
		},
		Get: func() (string, bool) {
			av, aset := a.Get()
			bv, bset := b.Get()
			return av + ":" + bv, aset || bset
		},
	}
}

// Bool is a boolean in any strconv.ParseBool spelling, rendered 1 or 0.
// Format omits it at def.
func Bool(key string, p *bool, def bool) Field {
	return Field{
		Key: key,
		Set: func(val string) error {
			v, err := strconv.ParseBool(val)
			if err != nil {
				return errors.New("not a boolean")
			}
			*p = v
			return nil
		},
		Get: func() (string, bool) {
			if *p {
				return "1", *p != def
			}
			return "0", *p != def
		},
	}
}

// Enum is one of names. Format omits it at def.
func Enum(key string, p *string, def string, names ...string) Field {
	return Field{
		Key: key,
		Set: func(val string) error {
			if !slices.Contains(names, val) {
				return fmt.Errorf("not one of %s", strings.Join(names, ", "))
			}
			*p = val
			return nil
		},
		Get: func() (string, bool) { return *p, *p != def },
	}
}

// Flag records f's presence: a successful Set sets *has, and Format renders
// f exactly when *has is set, whatever its value.
func Flag(f Field, has *bool) Field {
	set, get := f.Set, f.Get
	f.Set = func(val string) error {
		err := set(val)
		*has = err == nil
		return err
	}
	f.Get = func() (string, bool) {
		val, _ := get()
		return val, *has
	}
	return f
}

// Seed is a uint64 seed override whose presence *has records.
func Seed(key string, p *uint64, has *bool) Field {
	return Flag(Field{
		Key: key,
		Set: func(val string) error {
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return errors.New("not a uint64")
			}
			*p = n
			return nil
		},
		Get: func() (string, bool) { return strconv.FormatUint(*p, 10), true },
	}, has)
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
