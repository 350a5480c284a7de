package index

import (
	"errors"
	"sync"
	"sync/atomic"

	"stpq/internal/rtree"
	"stpq/internal/storage"
)

// ErrLocationsBuilt is what Insert and Delete return on a part whose
// location layer exists: the layer is a copy of the part's locations and
// would go stale. Mutate a BeginMerge clone instead, which starts without
// one.
var ErrLocationsBuilt = errors.New("index: the part's location layer is built; mutate a BeginMerge clone")

// locLayer is one feature part's location-only tree: every feature's id and
// point in the object tree's slot format, packed in 2-D Hilbert order, on
// its own MemDisk behind its own pool. A Voronoi cell depends on the
// locations alone, and the layer holds about twice the features a page the
// feature tree does — and, under SRT, clusters them by place only, where the
// feature tree also sorts by score and keywords. It is built from the part's
// pages at the first cell walk and never changes; a part that no NN query
// reaches never pays for it. Every view of the part (Session, WithExclude)
// shares it.
type locLayer struct {
	// src is the part's canonical tree (no session, no exclusion): the
	// layer holds every feature it indexes, and a view's exclusion applies
	// when the layer is read.
	src *rtree.Tree

	once sync.Once
	tree atomic.Pointer[rtree.Tree]
	err  error
	// builds counts build runs: 0 before the first cell walk, 1 after.
	builds  atomic.Int32
	metrics atomic.Pointer[storage.PoolMetrics]
}

func newLocLayer(src *rtree.Tree) *locLayer { return &locLayer{src: src} }

// get returns the layer's canonical tree, building it on the first call.
func (l *locLayer) get() (*rtree.Tree, error) {
	l.once.Do(func() {
		l.builds.Add(1)
		t, err := l.build()
		if err != nil {
			l.err = err
			return
		}
		l.tree.Store(t)
		if m := l.metrics.Load(); m != nil {
			t.Pool().SetMetrics(m)
		}
	})
	return l.tree.Load(), l.err
}

// build reads the part's leaves through a private pool that keeps and
// counts nothing — no query is charged for the build, and no page of the
// part's own pool moves — and bulk-loads their locations.
func (l *locLayer) build() (*rtree.Tree, error) {
	cfg := l.src.Config()
	src := l.src.WithPool(storage.NewBufferPool(cfg.Disk, 0))
	items := make([]rtree.Item, 0, src.Len())
	err := src.Leaves(func(v *rtree.PageView) bool {
		for i := 0; i < v.Len(); i++ {
			items = append(items, rtree.Item{ID: v.ItemID(i), Location: v.Point(i)})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	t, err := rtree.New(rtree.Config{PageSize: cfg.PageSize, BufferPages: cfg.BufferPages})
	if err != nil {
		return nil, err
	}
	if err := t.BulkLoad(items, spatialKey); err != nil {
		return nil, err
	}
	return t, nil
}

// Locations returns the part's location layer as this view sees it: reads
// charged like the view's own (Session), its tombstones hidden
// (WithExclude). The first call on any view of the part builds the layer;
// concurrent first calls build it once.
func (x *FeatureIndex) Locations() (*rtree.Tree, error) {
	t, err := x.loc.get()
	if err != nil {
		return nil, err
	}
	if x.acct != nil {
		t = t.WithPool(t.Pool().Session(x.acct))
	}
	return t.WithExclude(x.dead), nil
}

// LocationBuilds reports how many times the part's location layer has been
// built: 0 until its first cell walk, 1 after.
func (x *FeatureIndex) LocationBuilds() int { return int(x.loc.builds.Load()) }

// stats is the layer pool's counters, zero while it is unbuilt.
func (l *locLayer) stats() storage.Stats {
	if t := l.tree.Load(); t != nil {
		return t.Pool().Stats()
	}
	return storage.Stats{}
}

// mutable reports ErrLocationsBuilt once the layer exists.
func (l *locLayer) mutable() error {
	if l.tree.Load() != nil {
		return ErrLocationsBuilt
	}
	return nil
}
