// Package obs is the observability substrate of the engine: a span-based
// query tracer and a metrics registry (counters, gauges, histograms) with
// JSON and Prometheus text exposition.
//
// The paper's whole evaluation is an exercise in cost attribution — every
// query cost is split into an I/O part and a CPU part, and the NN variant
// additionally isolates its Voronoi-construction share (Figures 13–14).
// The tracer generalizes that: each query carries a tree of named spans
// (`combos.generate`, `objects.retrieve`, `voronoi.build`, ...), each with
// monotonic timings and per-span page-read deltas, so the breakdown the
// paper plots per figure is available per query.
//
// Tracing is designed to be compiled in always: a nil *Trace is a valid
// no-op tracer — every method is nil-safe and returns immediately — so the
// disabled path costs one pointer check per instrumentation point.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// ReadCounters supplies cumulative logical/physical page-read totals; the
// tracer diffs consecutive calls to attribute reads to spans. The engine
// passes a closure over its buffer-pool counters.
type ReadCounters func() (logical, physical int64)

// Trace is one query's span tree. A nil *Trace is the disabled tracer:
// all methods are no-ops. A Trace is not safe for concurrent use — query
// execution is single-threaded, as in the paper.
type Trace struct {
	root  *Span
	stack []*Span
	reads ReadCounters
}

// NewTrace opens a trace whose root span starts immediately. reads may be
// nil, in which case spans carry timings only.
func NewTrace(name string, reads ReadCounters) *Trace {
	t := &Trace{reads: reads}
	t.root = &Span{Name: name, t: t}
	t.root.resume()
	t.stack = []*Span{t.root}
	return t
}

// Root returns the root span (valid after Finish for a complete picture).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// SetRequestID stamps the root span with the request ID the query ran
// under, so a span tree fished out of the event log is attributable to one
// request. Nil-safe.
func (t *Trace) SetRequestID(id string) {
	if t == nil || id == "" {
		return
	}
	t.root.RequestID = id
}

// StartPhase opens (or re-enters) the child span with the given name under
// the currently open span, accumulating duration, entry count and read
// deltas across re-entries. This keeps the span tree bounded even when
// phases interleave thousands of times per query, which is exactly the
// access pattern of STPS (pull combination, retrieve objects, repeat).
// Re-entering a span that is still running is not supported.
func (t *Trace) StartPhase(name string) *Span {
	if t == nil {
		return nil
	}
	cur := t.stack[len(t.stack)-1]
	var s *Span
	for _, c := range cur.Children {
		if c.Name == name {
			s = c
			break
		}
	}
	if s == nil {
		s = &Span{Name: name, t: t}
		cur.Children = append(cur.Children, s)
	}
	s.resume()
	t.stack = append(t.stack, s)
	return s
}

// Finish ends every span still open (innermost first) and returns the
// root. It is idempotent.
func (t *Trace) Finish() *Span {
	if t == nil {
		return nil
	}
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		if top.running {
			top.End()
		} else {
			t.stack = t.stack[:len(t.stack)-1]
		}
	}
	return t.root
}

// Span is one named phase of a query: accumulated wall time, page-read
// deltas attributed while the span was open, optional counters, and child
// spans. Exported fields marshal to JSON for machine-readable output.
type Span struct {
	Name string `json:"name"`
	// Count is the number of times the span was entered (phase spans are
	// re-entered once per combination/batch/etc.).
	Count    int           `json:"count"`
	Duration time.Duration `json:"duration_ns"`
	// LogicalReads and PhysicalReads are the page reads observed while the
	// span (including its children) was open.
	LogicalReads  int64            `json:"logical_reads"`
	PhysicalReads int64            `json:"physical_reads"`
	Counters      map[string]int64 `json:"counters,omitempty"`
	Children      []*Span          `json:"children,omitempty"`
	// RequestID is set on root spans of queries that ran under a
	// request-scoped context (Trace.SetRequestID).
	RequestID string `json:"request_id,omitempty"`

	t                  *Trace
	running            bool
	keep               bool
	start              time.Time
	startLog, startPhy int64
}

// Kept reports whether the trace was explicitly requested (per-query
// opt-in or a sampling hit). Traces collected only so a slow-query capture
// would be complete report false and are dropped from event records unless
// the query actually crossed the slow threshold.
func (s *Span) Kept() bool { return s != nil && s.keep }

// MarkKeep flags a root span as explicitly requested (Query.Trace or a
// sampling hit) rather than merely collected in case the query turns out
// slow. Nil-safe.
func (s *Span) MarkKeep() {
	if s != nil {
		s.keep = true
	}
}

// resume (re)enters the span.
func (s *Span) resume() {
	s.Count++
	s.running = true
	s.start = time.Now()
	if s.t.reads != nil {
		s.startLog, s.startPhy = s.t.reads()
	}
}

// End closes the span, accumulating its duration and read deltas. Nil-safe
// and idempotent (ending an already-ended span is a no-op).
func (s *Span) End() {
	if s == nil || !s.running {
		return
	}
	s.running = false
	s.Duration += time.Since(s.start)
	if s.t.reads != nil {
		l, p := s.t.reads()
		s.LogicalReads += l - s.startLog
		s.PhysicalReads += p - s.startPhy
	}
	if st := s.t.stack; len(st) > 0 && st[len(st)-1] == s {
		s.t.stack = st[:len(st)-1]
	}
}

// Add accumulates a named counter on the span. Nil-safe.
func (s *Span) Add(name string, n int64) {
	if s == nil {
		return
	}
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	s.Counters[name] += n
}

// SelfPhysicalReads returns the span's physical reads not attributed to
// any child — the residual a breakdown must not lose.
func (s *Span) SelfPhysicalReads() int64 {
	if s == nil {
		return 0
	}
	v := s.PhysicalReads
	for _, c := range s.Children {
		v -= c.PhysicalReads
	}
	return v
}

// Walk visits the span and its descendants depth-first, passing each
// span's depth and slash-separated path (excluding the root name).
func (s *Span) Walk(fn func(path string, depth int, sp *Span)) {
	if s == nil {
		return
	}
	var rec func(prefix string, depth int, sp *Span)
	rec = func(prefix string, depth int, sp *Span) {
		fn(prefix, depth, sp)
		for _, c := range sp.Children {
			p := c.Name
			if prefix != "" {
				p = prefix + "/" + c.Name
			}
			rec(p, depth+1, c)
		}
	}
	rec("", 0, s)
}

// String renders the span tree, one line per span:
//
//	stps.range                    ×1     1.2ms   412/37 reads
//	  combos.generate             ×13  812µs    300/21 reads  combinations=12
func (s *Span) String() string {
	if s == nil {
		return "<no trace>"
	}
	var b strings.Builder
	s.Walk(func(_ string, depth int, sp *Span) {
		width := 28 - 2*depth
		if width < 1 {
			width = 1 // deep STPS traces must stay renderable, not aligned
		}
		fmt.Fprintf(&b, "%s%-*s ×%-5d %9s  %d/%d reads",
			strings.Repeat("  ", depth), width, sp.Name, sp.Count,
			sp.Duration.Round(time.Microsecond), sp.LogicalReads, sp.PhysicalReads)
		if len(sp.Counters) > 0 {
			keys := make([]string, 0, len(sp.Counters))
			for k := range sp.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "  %s=%d", k, sp.Counters[k])
			}
		}
		b.WriteByte('\n')
	})
	return b.String()
}
