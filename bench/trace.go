package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// epoch anchors the benchmark's monotonic clock.
//
//bhss:allow(detrand) the wall clock IS the measurement: the benchmark times calls and never feeds a reading back into the program
var epoch = time.Now()

// now returns monotonic nanoseconds since the benchmark started.
func now() int64 { return int64(time.Since(epoch)) }

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// span is one call into a layer. parent indexes the enclosing span in the
// same tracer (-1 for a root); id is the frame or block the call served.
type span struct {
	name       string
	start, end int64
	parent, id int
}

// tracer keeps the traced pass's spans in memory until the run ends. A nil
// tracer records nothing, so untraced passes run the same code.
type tracer struct {
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, id int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: now(), parent: parent, id: id})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = now()
}

// totals sums each span name's duration in ns. A layer's self time is its
// total minus its children's (see ledger).
func (t *tracer) totals() map[string]float64 {
	total := map[string]float64{}
	for _, s := range t.spans {
		total[s.name] += float64(s.end - s.start)
	}
	return total
}

// writeSpans writes the tracer's spans as JSONL, one span per line; parent
// is the line number (from 0) of the enclosing span.
func writeSpans(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"id":%d}`+"\n", s.name, s.start, s.end, s.parent, s.id)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
