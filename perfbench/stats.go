package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted samples by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// The epsilon keeps float error (0.999*10000 = 9990.000000000002) from
	// moving the rank.
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailPercentiles are the percentiles the tail rule chooses from.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tail applies the reporting rule for a latency tail: the highest percentile
// with at least ten samples beyond it, its value, and the sample count. ok is
// false when even the median lacks ten samples beyond it.
func tail(sorted []float64) (pct, value float64, ok bool) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, quantile(sorted, p/100), true
		}
	}
	return 0, math.NaN(), false
}

// supported reports whether percentile p has at least ten samples beyond it.
func supported(n int, p float64) bool { return float64(n)*(1-p/100) >= 10-1e-9 }

// dist is a latency sample set; safe for concurrent adds.
type dist struct {
	mu sync.Mutex
	v  []float64
}

func (d *dist) add(x float64) {
	d.mu.Lock()
	d.v = append(d.v, x)
	d.mu.Unlock()
}

func (d *dist) sorted() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := append([]float64(nil), d.v...)
	sort.Float64s(s)
	return s
}

// describe renders "p50=… p99.9=… (n=…)" with the tail rule for logs.
func describe(sorted []float64, unit string) string {
	pct, v, ok := tail(sorted)
	if !ok {
		return fmt.Sprintf("too few samples (n=%d)", len(sorted))
	}
	return fmt.Sprintf("p50=%.4g%s p%g=%.4g%s (n=%d)", quantile(sorted, 0.5), unit, pct, v, unit, len(sorted))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metricName is the alphabet metric names must stay within.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// span is one timed call into a module, recorded by the benchmark around the
// call. Times are nanoseconds since the tracer started; spans of one rung or
// one run phase share Trace, and Parent names the enclosing span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // events or frames the call covered
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin returns a span's start; end records the span and returns its id.
func (tr *tracer) begin() int64 {
	if tr == nil {
		return 0
	}
	return int64(time.Since(tr.t0))
}

func (tr *tracer) end(trace, name string, parent uint64, start int64, n int) uint64 {
	if tr == nil {
		return 0
	}
	end := int64(time.Since(tr.t0))
	tr.mu.Lock()
	id := uint64(len(tr.spans) + 1)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end, N: n})
	tr.mu.Unlock()
	return id
}

// span records fn as one call into a layer.
func (tr *tracer) span(trace, name string, n int, fn func() error) error {
	st := tr.begin()
	err := fn()
	tr.end(trace, name, 0, st, n)
	return err
}

// adopt sets the parent of spans recorded since mark (exclusive) that have
// none, so a rung span can be recorded after its children.
func (tr *tracer) adopt(mark int, parent uint64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	for i := mark; i < len(tr.spans); i++ {
		if tr.spans[i].Parent == 0 && tr.spans[i].ID != parent {
			tr.spans[i].Parent = parent
		}
	}
	tr.mu.Unlock()
}

func (tr *tracer) mark() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.spans)
}

// write dumps the spans as JSON lines.
func (tr *tracer) write(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	n := len(tr.spans)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return 0, err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return n, f.Close()
}
