package ingest

// compact.go holds the pacing machinery of the background compactor: the
// expensive part of a compaction (applying net mutations to copy-on-write
// index clones) runs without locks, and the Pacer throttles it so the
// foreground read path keeps its latency when the serving layer is
// saturated.

import (
	"runtime"
	"time"
)

// Pacing points fall every pacerChunkOps index operations; while the gate
// is saturated the pacer backs off pacerPause at a time.
const (
	pacerChunkOps = 512
	pacerPause    = 2 * time.Millisecond
)

// Pacer rate-limits background index work. Apply loops call Tick after
// every operation; at each pacing point the pacer yields the processor and
// — when the Gate reports foreground saturation — sleeps before
// continuing, bounding the compactor's page throughput while queries are
// queueing.
type Pacer struct {
	// Gate reports whether the foreground is saturated (e.g. the serve
	// admission queue is non-empty). Nil means never saturated.
	Gate func() bool

	ops int
}

// Tick records one completed operation and paces at chunk boundaries.
func (p *Pacer) Tick() {
	if p == nil {
		return
	}
	p.ops++
	if p.ops%pacerChunkOps != 0 {
		return
	}
	// Back off while the foreground is saturated, but never indefinitely:
	// the compactor must still finish under sustained load, or runs pile
	// up and write backpressure kicks in.
	for i := 0; i < 8 && p.Gate != nil && p.Gate(); i++ {
		time.Sleep(pacerPause)
	}
	runtime.Gosched()
}
