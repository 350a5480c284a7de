package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, made from outside it. The engine is
// not instrumented: where one layer calls the next, the benchmark calls
// each in turn on the same request and links the inner call to the outer
// as its parent, so that the outer span's duration less the inner's is what
// the outer layer adds.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    string `json:"req"` // <workload>/<query index>, or <workload>/<driver>
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"` // calls a driver's span covers
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Ids start at 1; parent
// 0 is none.
type tracer struct {
	zero  time.Time
	mu    sync.Mutex // the serving workload records from two connections
	spans []span
	// filing is the time spent recording spans: what tracing itself costs.
	filing time.Duration
}

func newTracer() *tracer { return &tracer{zero: time.Now()} }

// add records a finished call and returns the span's id.
func (t *tracer) add(name, req string, parent int, start, end time.Time) int {
	began := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.zero)), End: int64(end.Sub(t.zero)),
	})
	t.filing += time.Since(began)
	return len(t.spans)
}

// write stores the stamp and every span as JSON lines.
func (t *tracer) write(path string, st stamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(st)
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
