package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestEventLogRing(t *testing.T) {
	l := NewEventLog(3)
	if l.Len() != 0 {
		t.Fatalf("empty log Len = %d", l.Len())
	}
	for i := 1; i <= 5; i++ {
		l.Record(QueryEvent{Algorithm: "stps", K: i})
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d after overflow, want 3", l.Len())
	}
	got := l.Recent(0)
	if len(got) != 3 {
		t.Fatalf("Recent(0) returned %d events", len(got))
	}
	// Newest first: K 5, 4, 3 with sequence numbers 5, 4, 3.
	for i, wantK := range []int{5, 4, 3} {
		if got[i].K != wantK || got[i].Seq != uint64(wantK) {
			t.Errorf("Recent[%d] = K %d seq %d, want K %d seq %d",
				i, got[i].K, got[i].Seq, wantK, wantK)
		}
	}
	if got := l.Recent(1); len(got) != 1 || got[0].K != 5 {
		t.Errorf("Recent(1) = %+v", got)
	}
	if got := l.Recent(99); len(got) != 3 {
		t.Errorf("Recent(99) returned %d events", len(got))
	}
	// Nil logs swallow records and return empties.
	var nl *EventLog
	nl.Record(QueryEvent{})
	if nl.Len() != 0 || nl.Recent(5) != nil {
		t.Error("nil EventLog must be inert")
	}
}

func TestRadiusBucket(t *testing.T) {
	if RadiusBucket(0) != noRadius || RadiusBucket(-1) != noRadius {
		t.Error("non-positive radii must map to the sentinel bucket")
	}
	// Nearly equal radii share a bucket; a doubling moves two buckets.
	if RadiusBucket(0.1) != RadiusBucket(0.105) {
		t.Error("0.1 and 0.105 should share a bucket")
	}
	if RadiusBucket(0.2)-RadiusBucket(0.1) != 2 {
		t.Errorf("doubling moved %d buckets, want 2", RadiusBucket(0.2)-RadiusBucket(0.1))
	}
}

func TestShapeKeyString(t *testing.T) {
	k := ShapeKey{Alg: "stps", Variant: "range", Sim: "jaccard", K: 10, RBucket: RadiusBucket(0.1), Sets: 2}
	s := k.String()
	for _, want := range []string{"stps|range|jaccard", "k=10", "r~0.0884", "sets=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("shape %q missing %q", s, want)
		}
	}
	nn := ShapeKey{Alg: "stds", Variant: "nearest-neighbor", Sim: "jaccard", K: 5, RBucket: noRadius, Sets: 1}
	if !strings.Contains(nn.String(), "r=-") {
		t.Errorf("radius-free shape %q should render r=-", nn.String())
	}
}

func TestShapeStatsObserveAndPredict(t *testing.T) {
	s := NewShapeStats()
	key := ShapeKey{Alg: "stps", Variant: "range", Sim: "jaccard", K: 10, RBucket: RadiusBucket(0.1), Sets: 2}

	name := s.Observe(key, 10*time.Millisecond, 2*time.Millisecond, 100, 10, 5)
	if name != key.String() {
		t.Errorf("Observe returned %q, want %q", name, key.String())
	}
	// The label is interned: later observations return the identical string
	// header, which is what keeps event recording allocation-free.
	again := s.Observe(key, 20*time.Millisecond, 4*time.Millisecond, 200, 20, 7)
	if unsafe.StringData(name) != unsafe.StringData(again) {
		t.Errorf("labels not interned: %q vs %q", name, again)
	}

	s.Observe(key, 30*time.Millisecond, 6*time.Millisecond, 300, 30, 9)
	rows := s.Rows()
	want := ShapeRow{Shape: key.String(), Samples: 3, MeanDuration: 20 * time.Millisecond, MeanIOTime: 4 * time.Millisecond,
		MeanLogicalReads: 200, MeanPhysicalReads: 20, MeanCombinations: 7}
	if len(rows) != 1 || rows[0] != want {
		t.Errorf("rows after three observations = %+v, want [%+v]", rows, want)
	}

	// Name of an unobserved shape renders without registering it.
	other := key
	other.K = 99
	if got := s.Name(other); got != other.String() {
		t.Errorf("Name(unobserved) = %q", got)
	}
	if len(s.Rows()) != 1 {
		t.Errorf("Name must not register shapes: %d rows", len(s.Rows()))
	}
}

func TestShapeStatsRowsOrder(t *testing.T) {
	s := NewShapeStats()
	a := ShapeKey{Alg: "stps", Variant: "range", Sim: "jaccard", K: 1, RBucket: noRadius, Sets: 1}
	b := ShapeKey{Alg: "stds", Variant: "range", Sim: "jaccard", K: 2, RBucket: noRadius, Sets: 1}
	s.Observe(a, time.Millisecond, 0, 1, 1, 1)
	s.Observe(b, time.Millisecond, 0, 1, 1, 1)
	s.Observe(b, time.Millisecond, 0, 1, 1, 1)
	rows := s.Rows()
	if len(rows) != 2 || rows[0].Shape != b.String() || rows[0].Samples != 2 {
		t.Errorf("rows = %+v, want most-sampled first", rows)
	}
}

func TestTelemetryRecordPolicy(t *testing.T) {
	tel := NewTelemetry()
	tel.SetSampling(Sampling{Slow: 50 * time.Millisecond})
	key := ShapeKey{Alg: "stps", Variant: "range", Sim: "jaccard", K: 10, RBucket: RadiusBucket(0.1), Sets: 2}

	// Provisional trace (collected only for slow capture) on a fast query:
	// dropped from the record.
	fast := NewTrace("stps.range", nil)
	fast.Finish()
	tel.Record(QueryEvent{Duration: time.Millisecond, Trace: fast.Root(), Outcome: "ok"}, key, true)
	ev := tel.Events.Recent(1)[0]
	if ev.Sampled || ev.Slow || ev.Trace != nil {
		t.Errorf("fast provisional trace survived: %+v", ev)
	}
	if tel.Slow.Len() != 0 {
		t.Error("fast query landed in the slow log")
	}

	// Same provisional trace on a slow query: kept, and mirrored to Slow.
	slow := NewTrace("stps.range", nil)
	slow.Finish()
	tel.Record(QueryEvent{Duration: 60 * time.Millisecond, Trace: slow.Root(), Outcome: "ok"}, key, true)
	ev = tel.Events.Recent(1)[0]
	if !ev.Slow || ev.Trace == nil {
		t.Errorf("slow query trace dropped: %+v", ev)
	}
	if ev.Sampled {
		t.Error("slow-only capture must not claim the sampler kept it")
	}
	if tel.Slow.Len() != 1 || tel.Slow.Recent(1)[0].Trace == nil {
		t.Error("slow log missing the complete trace")
	}

	// An explicitly kept trace survives regardless of duration.
	kept := NewTrace("stps.range", nil)
	kept.Finish().MarkKeep()
	tel.Record(QueryEvent{Duration: time.Millisecond, Trace: kept.Root(), Outcome: "ok"}, key, true)
	ev = tel.Events.Recent(1)[0]
	if !ev.Sampled || ev.Trace == nil {
		t.Errorf("kept trace dropped: %+v", ev)
	}

	// Cache hits resolve the shape label without counting an execution.
	before := tel.Shapes.Rows()[0].Samples
	tel.Record(QueryEvent{Duration: time.Microsecond, CacheHit: true, Outcome: "ok"}, key, false)
	if after := tel.Shapes.Rows()[0].Samples; after != before {
		t.Errorf("cache hit counted as execution: %d -> %d", before, after)
	}
	if ev = tel.Events.Recent(1)[0]; !ev.CacheHit || ev.Shape != key.String() {
		t.Errorf("cache-hit event = %+v", ev)
	}

	// Nil telemetry swallows everything.
	var nt *Telemetry
	nt.Record(QueryEvent{}, key, true)
	if nt.Sampling().Sample() {
		t.Error("nil telemetry must not sample")
	}
}

func TestTelemetrySampleRate(t *testing.T) {
	tel := NewTelemetry()
	if tel.Sampling().Sample() {
		t.Error("a new telemetry sampled")
	}
	tel.SetSampling(Sampling{Rate: 1})
	if !tel.Sampling().Sample() {
		t.Error("rate 1 did not sample")
	}
	hits := 0
	tel.SetSampling(Sampling{Rate: 0.5})
	for i := 0; i < 1000; i++ {
		if tel.Sampling().Sample() {
			hits++
		}
	}
	if hits < 350 || hits > 650 {
		t.Errorf("rate 0.5 hit %d/1000", hits)
	}
}

func TestNewTelemetryCapacities(t *testing.T) {
	tel := NewTelemetry()
	if tel.Events == nil || tel.Slow == nil || tel.Shapes == nil {
		t.Fatal("a telemetry must have both rings and the shape table")
	}
	if n := len(tel.Events.ring); n != DefaultEventLogSize {
		t.Errorf("event ring = %d", n)
	}
	if n := len(tel.Slow.ring); n != DefaultSlowLogSize {
		t.Errorf("slow ring = %d", n)
	}
	if s := tel.Sampling(); s != (Sampling{}) {
		t.Errorf("initial sampling = %+v, want off", s)
	}
	tel.Record(QueryEvent{Duration: time.Millisecond}, ShapeKey{Alg: "stps"}, true)
	if len(tel.Shapes.Rows()) != 1 || tel.Events.Len() != 1 || tel.Slow.Len() != 0 {
		t.Error("an unsampled query must reach the event ring and the shape table only")
	}
}

// TestAllocsEventRecord is the alloc-budget regression for the unsampled
// event-log hot path: once a query shape exists, recording an event must
// cost at most one allocation (in practice zero — a value copy into the
// ring plus atomic adds on the shape aggregate).
func TestAllocsEventRecord(t *testing.T) {
	tel := NewTelemetry()
	key := ShapeKey{Alg: "stps", Variant: "range", Sim: "jaccard", K: 10, RBucket: RadiusBucket(0.1), Sets: 2}
	ev := QueryEvent{
		Algorithm: "stps", Variant: "range", K: 10, Radius: 0.1,
		Duration: time.Millisecond, IOTime: 100 * time.Microsecond,
		LogicalReads: 400, PhysicalReads: 40, Combinations: 12,
		Outcome: "ok",
	}
	tel.Record(ev, key, true) // register the shape: steady state starts here
	avg := testing.AllocsPerRun(1000, func() {
		tel.Record(ev, key, true)
	})
	if avg > 1 {
		t.Errorf("unsampled Record = %.2f allocs/op, budget is 1", avg)
	}
}

// TestSpanStringDeepTree renders a span tree deeper than the 14 levels the
// name column can absorb: the width clamp must keep every line intact
// instead of feeding a negative width to Fprintf.
func TestSpanStringDeepTree(t *testing.T) {
	tr := NewTrace("root", nil)
	const depth = 18
	for i := 0; i < depth; i++ {
		tr.StartPhase(fmt.Sprintf("level%02d", i))
	}
	out := tr.Finish().String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != depth+1 {
		t.Fatalf("rendered %d lines, want %d:\n%s", len(lines), depth+1, out)
	}
	for i, line := range lines {
		if !strings.Contains(line, "reads") {
			t.Errorf("line %d lost its read column: %q", i, line)
		}
	}
	if !strings.Contains(lines[depth], fmt.Sprintf("level%02d", depth-1)) {
		t.Errorf("deepest span name missing: %q", lines[depth])
	}
	// Indentation keeps growing even after the name column bottoms out.
	if !strings.HasPrefix(lines[depth], strings.Repeat("  ", depth)) {
		t.Errorf("deepest line lost its indent: %q", lines[depth])
	}
}
