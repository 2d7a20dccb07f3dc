package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSnapshotWriterJSONL(t *testing.T) {
	p := NewPipeline()
	p.Tx.Frames.Add(5)
	var buf bytes.Buffer
	w := NewSnapshotWriter(&buf, p)
	if err := w.Write(); err != nil {
		t.Fatal(err)
	}
	p.Tx.Frames.Add(2)
	if err := w.Write(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	for i, want := range []int64{5, 7} {
		var snap Snapshot
		if err := json.Unmarshal([]byte(lines[i]), &snap); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		var got int64 = -1
		for _, c := range snap.Counters {
			if c.Name == "tx.frames" {
				got = c.Value
			}
		}
		if got != want {
			t.Fatalf("line %d tx.frames = %d, want %d", i, got, want)
		}
		if snap.Spans != nil {
			t.Fatalf("line %d carries spans; writer must use SnapshotLight", i)
		}
	}
}

func TestSnapshotWriterJSONLHeader(t *testing.T) {
	p := NewPipeline()
	var buf bytes.Buffer
	w := NewSnapshotWriter(&buf, p)
	w.SetHeader(Header{Schema: SnapshotSchema, GitRev: "abc123", GoVersion: "go1.22",
		GOOS: "linux", GOARCH: "amd64", SIMD: "avx2", Seed: 7})
	if err := w.Write(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 snapshots", len(lines))
	}
	var hdr struct {
		Header *Header `json:"header"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Header == nil {
		t.Fatalf("first line is not a header record: %q (%v)", lines[0], err)
	}
	if hdr.Header.GitRev != "abc123" || hdr.Header.Seed != 7 || hdr.Header.SIMD != "avx2" {
		t.Fatalf("header round trip = %+v", hdr.Header)
	}
	// The header must appear exactly once, and snapshot lines must still
	// parse as snapshots.
	var snap Snapshot
	if err := json.Unmarshal([]byte(lines[1]), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != SnapshotSchema {
		t.Fatalf("snapshot schema = %d, want %d", snap.Schema, SnapshotSchema)
	}
	if strings.Count(buf.String(), "header") != 1 {
		t.Fatal("header written more than once")
	}
}

func TestSnapshotWriterStop(t *testing.T) {
	p := NewPipeline()
	var buf bytes.Buffer
	w := NewSnapshotWriter(&buf, p)
	// Stop without Start still emits the final snapshot.
	if err := w.Stop(); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("Stop wrote %q, want exactly one snapshot line", buf.String())
	}
}
