package spec

import (
	"math"
	"slices"
	"testing"
)

// toy exercises every field shape. The parsers built on this package pin
// their grammars' accept sets and canonical forms; this test pins what is
// the core's alone: the keys Parse returns and the exact error text.
type toy struct {
	F, P    float64
	N       int
	A, B    float64
	On      bool
	Mode    string
	Seed    uint64
	HasSeed bool
}

func (c *toy) grammar() Grammar {
	return Grammar{Pkg: "toy", Noun: "test", Fields: []Field{
		Float("f", &c.F, -1, 1, 0),
		Float("p", &c.P, Positive, math.Inf(1), 1),
		Int("n", &c.N, 0, 10, 3),
		Pair("ab", Float("", &c.A, 0, 1, 0), Float("", &c.B, 0, 5, 0)),
		Bool("on", &c.On, false),
		Enum("mode", &c.Mode, "a", "a", "b"),
		Seed("seed", &c.Seed, &c.HasSeed),
	}}
}

func newToy() toy { return toy{P: 1, N: 3, Mode: "a"} }

// TestParseKeysAndFormat: Parse returns the keys in spec order; Format
// renders table order, omits defaults, and renders a flagged seed even at
// zero.
func TestParseKeysAndFormat(t *testing.T) {
	c := newToy()
	keys, err := c.grammar().Parse(" seed=0 , mode=b,ab=0.5,n=3,on=true ")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"seed", "mode", "ab", "n", "on"}; !slices.Equal(keys, want) {
		t.Errorf("keys %q, want %q", keys, want)
	}
	if got, want := c.grammar().Format(), "ab=0.5:0,on=1,mode=b,seed=0"; got != want {
		t.Errorf("Format() = %q, want %q", got, want)
	}
	if keys, err := c.grammar().Parse("  "); keys != nil || err != nil {
		t.Errorf("blank spec: keys %q, err %v", keys, err)
	}
}

// TestParseErrorText pins the error message of every rejection class.
func TestParseErrorText(t *testing.T) {
	cases := []struct{ spec, want string }{
		{",", `toy: empty entry in test spec ","`},
		{"f", `toy: test entry "f" is not key=value`},
		{"g=1", `toy: unknown test key "g"`},
		{"f=0,f=0", `toy: duplicate test key "f"`},
		{"f=NaN", `toy: f="NaN": not a finite number`},
		{"f=2", `toy: f="2": out of [-1, 1]`},
		{"p=0", `toy: p="0": out of (0, +Inf]`},
		{"n=1.5", `toy: n="1.5": not an integer`},
		{"n=11", `toy: n="11": out of [0, 10]`},
		{"ab=0.5:9", `toy: ab="0.5:9": out of [0, 5]`},
		{"on=maybe", `toy: on="maybe": not a boolean`},
		{"mode=c", `toy: mode="c": not one of a, b`},
		{"seed=-1", `toy: seed="-1": not a uint64`},
	}
	for _, tc := range cases {
		c := newToy()
		_, err := c.grammar().Parse(tc.spec)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) error %v, want %s", tc.spec, err, tc.want)
		}
	}
}
