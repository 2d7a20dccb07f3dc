package iqstream

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"bhss/internal/dsp/simd"
)

// FuzzReadBlock feeds arbitrary bytes to the wire-format reader: it must
// never panic or allocate absurdly, and every block it accepts must
// re-serialize, before the next read, to the bytes it was read from. The
// one exception is a float32 signalling NaN, which widening returns quiet:
// it re-serializes with bit 22 set.
func FuzzReadBlock(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteBlock([]complex128{1, 2i, -3})
	_ = w.WriteBlock(wireSpecials)
	f.Add(buf.Bytes())
	f.Add([]byte("IQS1"))
	f.Add([]byte{})
	snan := []byte("IQS1\x02\x00\x00\x00")
	for _, v := range []uint32{0x7f800001, 0xffa00000, 0x00000001, 0x80000000} {
		snan = binary.LittleEndian.AppendUint32(snan, v)
	}
	f.Add(snan)
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := NewReader(bytes.NewReader(raw))
		var re bytes.Buffer
		w := NewWriter(&re)
		for off := 0; ; {
			block, err := r.ReadBlock()
			if err != nil {
				if err != io.EOF && err != ErrBadMagic && err != ErrTooLarge && err != ErrShortRead {
					t.Fatalf("unexpected error type: %v", err)
				}
				return
			}
			if len(block) > MaxBlock {
				t.Fatalf("accepted oversize block of %d samples", len(block))
			}
			re.Reset()
			if err := w.WriteBlock(block); err != nil {
				t.Fatalf("accepted block does not re-serialize: %v", err)
			}
			got, want := re.Bytes(), raw[off:off+8+8*len(block)]
			if len(got) != len(want) {
				t.Fatalf("block at byte %d re-serializes to %d bytes, read from %d", off, len(got), len(want))
			}
			for i := 0; i < len(want); i += 4 {
				wv := binary.LittleEndian.Uint32(want[i:])
				if i >= 8 && wv&0x7f800000 == 0x7f800000 && wv&0x007fffff != 0 {
					wv |= 1 << 22 // a NaN comes back quiet
				}
				if gv := binary.LittleEndian.Uint32(got[i:]); gv != wv {
					t.Fatalf("block at byte %d: word %d re-serializes as %#08x, read as %#08x (simd %v)",
						off, i/4, gv, binary.LittleEndian.Uint32(want[i:]), simd.Active())
				}
			}
			off += len(want)
		}
	})
}

// FuzzHandshake throws arbitrary lines at the handshake parser: it must
// never panic, every rejection must carry a one-line "ERR ..." reply, and
// every accepted line must survive a canonical round trip — re-rendering
// the parsed fields through the dialer's line builders and re-parsing must
// reproduce the same handshake, so client and hub can never drift apart on
// the grammar.
func FuzzHandshake(f *testing.F) {
	f.Add("IQHUB tx 3.5")
	f.Add("IQHUB tx")
	f.Add("IQHUB rx")
	f.Add("IQHUB jam -10 LINK 2 TAG j1")
	f.Add("IQHUB tx 0 LINK 4294967295 TAG a.b-c_d")
	f.Add("IQHUB rx LINK 7 EXCL jam")
	f.Add("IQHUB rx LINK 1 LINK 2")
	f.Add("IQHUB tx LINK banana")
	f.Add("IQHUB tx NaN")
	f.Add("IQHUB spectator")
	f.Add("IQHUB tx 3.5 whatever")
	f.Add("HELLO world")
	f.Add("")
	f.Add("IQHUB")
	f.Fuzz(func(t *testing.T, line string) {
		hs, herr := parseHandshake(line)
		if herr != nil {
			if !strings.HasPrefix(herr.reply, "ERR ") || strings.ContainsAny(herr.reply, "\r\n") {
				t.Fatalf("rejection of %q carries malformed reply %q", line, herr.reply)
			}
			return
		}
		switch hs.role {
		case "tx", "jam", "rx":
		default:
			t.Fatalf("accepted %q with impossible role %q", line, hs.role)
		}
		if hs.tag != "" && !validTag(hs.tag) {
			t.Fatalf("accepted %q with invalid tag %q", line, hs.tag)
		}
		if hs.excl != "" && !validTag(hs.excl) {
			t.Fatalf("accepted %q with invalid excl %q", line, hs.excl)
		}
		// Canonical round trip through the client-side line builders. The
		// jam role's implied default tag renders as no TAG option.
		var canon string
		if hs.role == "rx" {
			canon = rxHandshakeLine(LinkOpts{Link: hs.link, Exclude: hs.excl})
		} else {
			tag := hs.tag
			if hs.role == "jam" && tag == "jam" {
				tag = ""
			}
			canon = txHandshakeLine(hs.gainDB, LinkOpts{Link: hs.link, Tag: tag, Jam: hs.role == "jam"})
		}
		hs2, herr2 := parseHandshake(canon)
		if herr2 != nil {
			t.Fatalf("canonical form %q of accepted line %q rejected: %v", canon, line, herr2)
		}
		if hs2 != hs {
			t.Fatalf("canonical round trip of %q changed the handshake: %+v -> %+v", line, hs, hs2)
		}
	})
}

// FuzzParseChaosSpec throws arbitrary strings at the chaos spec parser: it
// must never panic, only return errors. Whenever it accepts a spec, the
// canonical String() form must be a fixed point (Parse ∘ String ≡ id on
// canonical forms) and must reproduce the config exactly, so -chaos flag
// values round-trip through logs and scripts without drift.
func FuzzParseChaosSpec(f *testing.F) {
	f.Add("")
	f.Add("latency=5:2,stall=0.1:250,reset=0.01")
	f.Add("resetevery=4096,trunc=0.05,short=0.5,drop=0.001,seed=42")
	f.Add("latency=NaN")
	f.Add("reset=1.5,drop=-0")
	f.Add("=,=,=")
	f.Add("seed=18446744073709551615")
	f.Add("stall=1:60000,resetevery=1073741824")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseChaosSpec(spec)
		if err != nil {
			return
		}
		canon := cfg.String()
		cfg2, err := ParseChaosSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not re-parse: %v", canon, spec, err)
		}
		if cfg2 != cfg {
			t.Fatalf("canonical round trip of %q changed the config: %+v -> %+v", spec, cfg, cfg2)
		}
		if canon2 := cfg2.String(); canon2 != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, canon2)
		}
	})
}
