package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Header is the one-time self-description record stamped ahead of a
// snapshot stream: the build and run identity a reader needs to interpret
// stored or streamed snapshots without the producing shell session. It is
// written once, lazily, before the first snapshot (SetHeader), so the
// periodic hot path stays untouched.
type Header struct {
	// Schema is the snapshot layout version (SnapshotSchema).
	Schema int `json:"schema"`
	// GitRev is the source revision, "-dirty"-suffixed for modified trees
	// and "unknown" when the producer cannot tell.
	GitRev    string `json:"git_rev"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// SIMD names the active vector-kernel mode; the caller supplies it
	// (obs cannot import internal/dsp/simd without inverting the layering).
	SIMD string `json:"simd,omitempty"`
	// Seed is the experiment seed of the run the stream observes.
	Seed uint64 `json:"seed"`
}

// SnapshotWriter periodically serializes a pipeline's SnapshotLight to an
// io.Writer as JSONL, one snapshot per line. It is a reporting component:
// it allocates freely and must not be called from hot paths.
// Write/Start/Stop are safe for concurrent use with each other and with
// metric recording.
type SnapshotWriter struct {
	mu       sync.Mutex
	w        io.Writer
	pipeline *Pipeline

	// header, when set, is written once ahead of the first snapshot.
	header    *Header
	headerOut bool

	stop chan struct{}
	done chan struct{}
}

// SetHeader arranges for h to be written once, as a {"header": {...}}
// line, before the first snapshot. Call before Start or the first Write; a
// header set after output began is ignored.
func (s *SnapshotWriter) SetHeader(h Header) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.headerOut {
		return
	}
	s.header = &h
}

// NewSnapshotWriter returns a writer emitting p's snapshots to w.
func NewSnapshotWriter(w io.Writer, p *Pipeline) *SnapshotWriter {
	return &SnapshotWriter{w: w, pipeline: p}
}

// Write serializes one snapshot now.
func (s *SnapshotWriter) Write() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.write(s.pipeline.SnapshotLight())
}

func (s *SnapshotWriter) write(snap Snapshot) error {
	if err := s.writeHeader(); err != nil {
		return err
	}
	return json.NewEncoder(s.w).Encode(snap)
}

// writeHeader emits the pending one-time header record, if any.
func (s *SnapshotWriter) writeHeader() error {
	if s.header == nil || s.headerOut {
		return nil
	}
	s.headerOut = true
	return json.NewEncoder(s.w).Encode(struct {
		Header *Header `json:"header"`
	}{Header: s.header})
}

// Start launches a goroutine writing one snapshot every interval until Stop.
// Start may be called at most once.
func (s *SnapshotWriter) Start(interval time.Duration) {
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				// Periodic write errors are not fatal to the run; the
				// final Stop write returns any persistent error.
				_ = s.Write()
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop halts the periodic goroutine (if started) and writes one final
// snapshot so the output always ends with the run's complete totals.
func (s *SnapshotWriter) Stop() error {
	if s.stop != nil {
		close(s.stop)
		<-s.done
	}
	return s.Write()
}
