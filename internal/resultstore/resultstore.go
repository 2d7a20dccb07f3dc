// Package resultstore is the experiment-campaign datastore: an append-only,
// crash-safe record log holding one entry per measured experiment run —
// keyed by (git rev, experiment id, scale, seed, impair spec, chaos spec) —
// with the run's canonical scalar metrics (power advantage, packet loss,
// mean carrier lock, throughput) and a full obs.Snapshot for drill-down.
//
// The store deliberately avoids any database dependency (the repo's go.mod
// is empty and stays that way): records are length-prefixed JSON frames
// with a per-record CRC32, and Open recovers from a torn final write by
// truncating the file back to the last intact frame. An in-memory index
// rebuilt on Open serves all reads; appends go straight to disk and are
// fsynced before Append returns, so a crash never loses an acknowledged
// record and never corrupts an earlier one.
//
// Two record kinds share the log: results carry measurements; anchors mark
// one prior result as the regression baseline of its series (the key minus
// the git rev). Compare diffs a fresh result against the last anchored
// record of the same series, and NewDashboard renders per-series metric
// trajectories across revisions. DESIGN.md §15 documents the format, the
// key schema and the anchor/compare workflow.
//
// The package never reads the wall clock or any other ambient state
// (bhsslint's detrand contract): timestamps and git revisions are
// supplied by the caller, so the stored bytes are a pure function of the
// appended records.
package resultstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"bhss/internal/obs"
)

// Schema is the record-format version stamped into every record. Decoders
// reject records from a newer schema instead of misreading them.
const Schema = 1

// logName is the record log's file name inside the store directory.
const logName = "records.bhss"

// frameHeaderSize is the per-record framing overhead: a uint32 little-endian
// payload length followed by a uint32 little-endian CRC32 (IEEE) of the
// payload bytes.
const frameHeaderSize = 8

// maxRecordSize bounds a single record's JSON payload (64 MiB). The largest
// legitimate record — a full-sweep obs snapshot — is under a megabyte; the
// bound keeps a corrupt length prefix from driving a giant allocation.
const maxRecordSize = 64 << 20

// Kind discriminates the two record types sharing the log.
type Kind string

const (
	// KindResult is a measurement record.
	KindResult Kind = "result"
	// KindAnchor marks a prior result (AnchorSeq) as the comparison
	// baseline of its series.
	KindAnchor Kind = "anchor"
)

// Key identifies one stored measurement: the revision the code was built
// from plus everything that parameterizes the run. Two records with equal
// keys are replicates of the same measurement.
type Key struct {
	GitRev     string `json:"git_rev"`
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	Seed       uint64 `json:"seed"`
	Impair     string `json:"impair,omitempty"`
	Chaos      string `json:"chaos,omitempty"`
}

// Series is the canonical key-minus-rev identity: records of one series are
// the same measurement repeated across revisions, which is exactly what the
// regression gate diffs and the dashboard plots.
func (k Key) Series() string {
	return fmt.Sprintf("%s/%s/seed=%d/impair=%s/chaos=%s",
		k.Experiment, k.Scale, k.Seed, k.Impair, k.Chaos)
}

// String renders the full key including the (shortened) revision.
func (k Key) String() string { return k.Series() + "@" + ShortRev(k.GitRev) }

// ShortRev abbreviates a 40-hex git revision to 12 characters for display;
// shorter or non-hex values ("unknown", dirty-suffixed revs) pass through.
func ShortRev(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}

// Metric is one canonical scalar result of a run. HigherIsBetter orients
// the regression gate: an advantage or throughput regresses downward, a
// packet-loss rate regresses upward.
type Metric struct {
	Name           string  `json:"name"`
	Value          float64 `json:"value"`
	Unit           string  `json:"unit,omitempty"`
	HigherIsBetter bool    `json:"higher_is_better"`
}

// Record is one log entry. For KindResult, Metrics and (optionally) Obs
// carry the measurement; for KindAnchor, AnchorSeq names the result being
// marked as its series' baseline and Key is copied from that result so the
// index never needs to chase pointers.
type Record struct {
	Schema int  `json:"schema"`
	Kind   Kind `json:"kind"`
	// Seq is the store-assigned, strictly increasing record number.
	Seq uint64 `json:"seq"`
	// UnixMS is a caller-supplied wall-clock stamp (milliseconds). The
	// store never reads the clock itself; a zero stamp is legal.
	UnixMS    int64         `json:"unix_ms,omitempty"`
	Key       Key           `json:"key"`
	Metrics   []Metric      `json:"metrics,omitempty"`
	Obs       *obs.Snapshot `json:"obs,omitempty"`
	AnchorSeq uint64        `json:"anchor_seq,omitempty"`
}

// Metric returns the named metric and whether the record carries it.
func (r Record) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Store is an open record log plus its in-memory index. All methods are
// safe for concurrent use; reads never touch the disk after Open.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	path string

	recs    []Record
	bySeq   map[uint64]int
	nextSeq uint64
}

// Open opens (creating if needed) the store in dir. A torn final record —
// the remains of a crash mid-append — is detected by its CRC/length frame
// and cut off by truncating the log back to the last intact frame; every
// earlier record is preserved bit-for-bit.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{f: f, path: path, bySeq: make(map[uint64]int), nextSeq: 1}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load scans the log, indexes every intact record and truncates a torn
// tail. Called once from Open, before the store is shared.
func (s *Store) load() error {
	data, err := io.ReadAll(s.f)
	if err != nil {
		return fmt.Errorf("resultstore: read %s: %w", s.path, err)
	}
	good := 0 // byte offset of the end of the last intact frame
	for off := 0; off < len(data); {
		rest := data[off:]
		if len(rest) < frameHeaderSize {
			break // torn header
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n == 0 || n > maxRecordSize || int(n) > len(rest)-frameHeaderSize {
			break // torn or corrupt payload length
		}
		payload := rest[frameHeaderSize : frameHeaderSize+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			break // torn payload
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // CRC-intact but undecodable: treat as end of log
		}
		if rec.Schema > Schema {
			return fmt.Errorf("resultstore: %s record %d has schema %d, this build reads ≤ %d",
				s.path, rec.Seq, rec.Schema, Schema)
		}
		s.index(rec)
		off += frameHeaderSize + int(n)
		good = off
	}
	if good < len(data) {
		// Torn tail: cut the log back to the last intact frame so the next
		// append starts on a clean boundary.
		if err := s.f.Truncate(int64(good)); err != nil {
			return fmt.Errorf("resultstore: truncate torn tail of %s: %w", s.path, err)
		}
	}
	if _, err := s.f.Seek(int64(good), io.SeekStart); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// index registers one decoded record in the in-memory maps.
func (s *Store) index(rec Record) {
	s.bySeq[rec.Seq] = len(s.recs)
	s.recs = append(s.recs, rec)
	if rec.Seq >= s.nextSeq {
		s.nextSeq = rec.Seq + 1
	}
}

// Close releases the log file. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// Append writes rec to the log and returns the stored form. The store
// assigns Seq and stamps Schema; a zero Kind defaults to KindResult. The
// frame is written in a single Write and fsynced before Append returns.
func (s *Store) Append(rec Record) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.Kind == "" {
		rec.Kind = KindResult
	}
	rec.Schema = Schema
	rec.Seq = s.nextSeq
	if err := s.appendLocked(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

func (s *Store) appendLocked(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("resultstore: encode record: %w", err)
	}
	if len(payload) > maxRecordSize {
		return fmt.Errorf("resultstore: record of %d bytes exceeds the %d-byte frame bound", len(payload), maxRecordSize)
	}
	frame := make([]byte, frameHeaderSize+len(payload))
	putFrame(frame, payload)
	if _, err := s.f.Write(frame); err != nil {
		return fmt.Errorf("resultstore: append: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("resultstore: sync: %w", err)
	}
	s.index(rec)
	s.nextSeq = rec.Seq + 1
	return nil
}

// putFrame fills frame — which must be frameHeaderSize+len(payload) long —
// with the length prefix, payload CRC and payload bytes.
func putFrame(frame, payload []byte) {
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderSize:], payload)
}

// Anchor appends an anchor record marking the result with the given Seq as
// the comparison baseline of its series. Later anchors for the same series
// supersede earlier ones.
func (s *Store) Anchor(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.bySeq[seq]
	if !ok {
		return fmt.Errorf("resultstore: anchor target seq %d not in store", seq)
	}
	target := s.recs[i]
	if target.Kind != KindResult {
		return fmt.Errorf("resultstore: anchor target seq %d is a %s record, not a result", seq, target.Kind)
	}
	return s.appendLocked(Record{
		Schema:    Schema,
		Kind:      KindAnchor,
		Seq:       s.nextSeq,
		Key:       target.Key,
		AnchorSeq: seq,
	})
}

// Len returns the total record count, both kinds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Records returns a copy of every record in append order.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.recs))
	copy(out, s.recs)
	return out
}

// Get returns the record with the given Seq.
func (s *Store) Get(seq uint64) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.bySeq[seq]
	if !ok {
		return Record{}, false
	}
	return s.recs[i], true
}

// SeriesRecords returns the result records of one series in append order —
// the trajectory the dashboard plots.
func (s *Store) SeriesRecords(series string) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for _, r := range s.recs {
		if r.Kind == KindResult && r.Key.Series() == series {
			out = append(out, r)
		}
	}
	return out
}

// SeriesList returns every distinct result series in the store, sorted.
func (s *Store) SeriesList() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	for _, r := range s.recs {
		if r.Kind != KindResult {
			continue
		}
		id := r.Key.Series()
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// LastAnchored resolves the newest anchor of the series to its result
// record: the baseline Compare diffs against. An anchor whose target has
// vanished (possible only under external log surgery) is skipped in favor
// of the next older one.
func (s *Store) LastAnchored(series string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.recs) - 1; i >= 0; i-- {
		r := s.recs[i]
		if r.Kind != KindAnchor || r.Key.Series() != series {
			continue
		}
		if j, ok := s.bySeq[r.AnchorSeq]; ok && s.recs[j].Kind == KindResult {
			return s.recs[j], true
		}
	}
	return Record{}, false
}
