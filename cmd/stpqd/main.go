// Command stpqd serves top-k spatio-textual preference queries over HTTP:
// a built stpq.DB behind the internal/serve worker pool, with admission
// control and a result cache.
//
// Usage:
//
//	stpqd -synthetic -objects 20000 -features 20000 -addr :8080
//	stpqd -synthetic -shards 4            # data laid out in 4 spatial shards
//	stpqd -synthetic -wal-dir data/wal    # live ingest + crash recovery
//	stpqd -open data/db -workers 8 -queue 128 -timeout 2s
//	stpqd -synthetic -wal-dir wal -rpc :9090   # a cluster replica (cluster.go)
//
// Endpoints:
//
//	POST /query    {"k":5,"radius":0.1,"lambda":0.5,"keywords":{"set":["kw1"]}}
//	POST /ingest   {"objects":[...],"delete_objects":[...],"features":{...}}
//	GET  /healthz  liveness; 503 until the index build completes
//	GET  /readyz   alias of /healthz
//	GET  /metrics  Prometheus text format
//	GET  /info     dataset shape (used by stpqload)
//
// The listener comes up immediately; while the index is still building
// every endpoint answers 503, so orchestrators can probe /healthz (or
// /readyz) and withhold traffic until the build finishes.
//
// SIGINT/SIGTERM trigger a graceful shutdown: admission stops, queued and
// in-flight queries drain, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // /debug/pprof on the -pprof listener
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"stpq"
	"stpq/internal/datagen"
	"stpq/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stpqd: ")
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err == nil {
		if len(cfg.replicas) > 0 {
			err = runCoordinator(cfg)
		} else {
			err = run(cfg)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

// daemonConfig carries the parsed flags.
type daemonConfig struct {
	addr, open          string
	synthetic           bool
	objects, features   int
	sets, vocab         int
	seed                int64
	indexKind, strategy string
	sigBits             int
	pageSize, bufPages  int
	shards              int
	pprofAddr           string
	walDir              string
	traceRate           float64
	slowQuery           time.Duration
	bgCompact           bool
	compactRuns         int
	flushOps            int
	ckptOps, ckptBytes  int64
	ckptDir             string
	serve               serve.Config

	// Cluster roles: a daemon with rpcAddr serves the cluster RPC protocol,
	// one with follow replays that leader's WAL, and a non-empty replicas
	// list makes the process the coordinator instead of a daemon.
	rpcAddr    string
	follow     string
	walRotate  time.Duration
	replicas   []string
	hedgeAfter time.Duration
	retryMax   int
}

// parseFlags parses the command line on its own FlagSet and rejects the
// flag combinations no mode accepts.
func parseFlags(args []string) (daemonConfig, error) {
	var cfg daemonConfig
	fs := flag.NewFlagSet("stpqd", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.open, "open", "", "directory of a DB written by stpq save")
	fs.BoolVar(&cfg.synthetic, "synthetic", false, "serve a generated synthetic dataset")
	fs.IntVar(&cfg.objects, "objects", 20_000, "synthetic data objects")
	fs.IntVar(&cfg.features, "features", 20_000, "synthetic feature objects per set")
	fs.IntVar(&cfg.sets, "sets", 2, "synthetic feature sets")
	fs.IntVar(&cfg.vocab, "vocab", 256, "synthetic vocabulary size")
	fs.Int64Var(&cfg.seed, "seed", 1, "synthetic random seed")
	fs.StringVar(&cfg.indexKind, "index", "srt", "feature index for -synthetic: srt | ir2")
	fs.IntVar(&cfg.sigBits, "signature-bits", 0, "-synthetic with -index ir2: superimposed signature bits per keyword (0 = exact bitmaps)")
	fs.IntVar(&cfg.pageSize, "page-size", 0, "-synthetic: index page size in bytes (0 = library default)")
	fs.IntVar(&cfg.bufPages, "buffer-pages", 0, "-synthetic: buffer pool pages per index (0 = library default)")
	fs.IntVar(&cfg.shards, "shards", 0, "lay -synthetic data out in N spatial shards under the one engine (0 or 1 = unsharded)")
	fs.StringVar(&cfg.strategy, "shard-strategy", "hilbert", "shard partitioner: hilbert | grid")
	fs.IntVar(&cfg.serve.Workers, "workers", 0, "concurrent query executors (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.serve.QueueDepth, "queue", 64, "admission queue depth")
	fs.DurationVar(&cfg.serve.Timeout, "timeout", 0, "per-query deadline (0 = none)")
	fs.IntVar(&cfg.serve.CacheEntries, "cache", 256, "result cache entries (negative disables)")
	fs.StringVar(&cfg.walDir, "wal-dir", "", "write-ahead log directory: enables POST /ingest and replays existing records on startup")
	fs.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); enables low-rate mutex and block profiling")
	fs.Float64Var(&cfg.traceRate, "trace-sample", 0, "fraction of queries (0..1) served with a full span tree in their event record")
	fs.DurationVar(&cfg.slowQuery, "slow-query", 0, "queries at least this slow land in /debug/slow with a complete trace (0 = off)")
	fs.DurationVar(&cfg.serve.MaxInflightCost, "max-inflight-cost", 0, "shed queries whose predicted cost would push the summed in-flight predicted cost over this budget (0 = off)")

	fs.BoolVar(&cfg.bgCompact, "background-compaction", false, "-synthetic: seal full deltas into runs and merge them on a background goroutine instead of stalling Apply")
	fs.IntVar(&cfg.compactRuns, "compact-runs", 0, "-synthetic: sealed-run watermark that wakes the background compactor (0 = default)")
	fs.IntVar(&cfg.flushOps, "auto-flush-ops", 0, "-synthetic: delta size that triggers a merge or run seal (0 = default, negative = never)")
	fs.Int64Var(&cfg.ckptOps, "checkpoint-every-ops", 0, "checkpoint automatically after this many applied mutations (0 = off; needs a WAL)")
	fs.Int64Var(&cfg.ckptBytes, "checkpoint-every-bytes", 0, "checkpoint automatically after this many appended WAL bytes (0 = off; needs a WAL)")
	fs.StringVar(&cfg.ckptDir, "checkpoint-dir", "", "directory auto-checkpoints are written to (default: the -open directory)")

	fs.StringVar(&cfg.rpcAddr, "rpc", "", "also serve the cluster RPC protocol on this address, as a replica a coordinator routes to (empty = off)")
	fs.StringVar(&cfg.follow, "follow", "", "run as a read replica pulling WAL segments from this leader RPC endpoint")
	fs.DurationVar(&cfg.walRotate, "wal-rotate", time.Second, "with -rpc: WAL rotation period so followers can fetch sealed segments (0 = never)")
	replicas := fs.String("replicas", "", "run the coordinator over these comma-separated replica RPC endpoints instead of serving a DB")
	fs.DurationVar(&cfg.hedgeAfter, "hedge-after", 0, "coordinator: duplicate a replica call on the next replica after this delay (0 = off)")
	fs.IntVar(&cfg.retryMax, "retry-max", 2, "coordinator: extra attempts per query after a retryable failure")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.serve.TraceSample = cfg.traceRate
	cfg.replicas = splitEndpoints(*replicas)
	coordinator := false
	fs.Visit(func(f *flag.Flag) { coordinator = coordinator || f.Name == "replicas" })
	switch {
	case cfg.open != "" && cfg.synthetic:
		return cfg, errors.New("use either -open or -synthetic, not both")
	case cfg.open != "" && cfg.shards > 1:
		return cfg, errors.New("-shards applies to -synthetic only (opened DBs take their shard count from the manifest)")
	case cfg.follow != "" && cfg.walDir != "":
		return cfg, errors.New("-follow and -wal-dir are mutually exclusive: a follower replays the leader's log, it does not own one")
	case coordinator && cfg.rpcAddr != "":
		return cfg, errors.New("-replicas runs the coordinator, which serves no cluster RPC: drop -rpc")
	case coordinator && len(cfg.replicas) == 0:
		return cfg, errors.New("-replicas needs at least one host:port endpoint")
	}
	return cfg, nil
}

// checkpointDir resolves where auto-checkpoints land: -checkpoint-dir if
// given, else the opened DB's own directory.
func (cfg daemonConfig) checkpointDir() string {
	if cfg.ckptDir != "" {
		return cfg.ckptDir
	}
	return cfg.open
}

func run(cfg daemonConfig) error {
	if cfg.pprofAddr != "" {
		startPprof(cfg.pprofAddr)
	}
	autoCkpt := cfg.ckptOps > 0 || cfg.ckptBytes > 0
	if autoCkpt && cfg.checkpointDir() == "" {
		return errors.New("-checkpoint-every-ops/-checkpoint-every-bytes need -checkpoint-dir (or -open)")
	}
	// The listener comes up before the index: a swappable handler answers
	// 503 (ErrNotBuilt) until the build completes, then the real service
	// handler takes over.
	var handler atomic.Pointer[http.Handler]
	building := buildingHandler()
	handler.Store(&building)
	srv := &http.Server{
		Addr: cfg.addr,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handler.Load()).ServeHTTP(w, r)
		}),
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on %s (healthz 503 until the index is built)", cfg.addr)

	type running struct {
		svc       *serve.Service
		db        *stpq.DB
		stopRoles func()
	}
	buildErrc := make(chan error, 1)
	svcc := make(chan running, 1)
	go func() {
		db, err := loadDB(cfg)
		if err != nil {
			buildErrc <- err
			return
		}
		svc, err := serve.New(db, cfg.serve)
		if err != nil {
			buildErrc <- err
			return
		}
		// The background compactor yields while admitted queries are
		// waiting for a worker: foreground reads outrank merge work.
		db.SetCompactionGate(svc.Saturated)
		if autoCkpt {
			go autoCheckpoint(ctx, db, cfg.checkpointDir(), cfg.ckptOps, cfg.ckptBytes)
		}
		stopRoles, err := startClusterRoles(ctx, cfg, db, svc)
		if err != nil {
			svc.Close()
			buildErrc <- err
			return
		}
		ready := svc.Handler()
		handler.Store(&ready)
		log.Printf("index ready: serving queries")
		svcc <- running{svc, db, stopRoles}
	}()

	select {
	case err := <-errc:
		return err
	case err := <-buildErrc:
		shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining queries")
	select {
	case r := <-svcc:
		log.Printf("result cache hit fraction: %.1f%%", 100*r.svc.CacheHitFraction())
		r.stopRoles()
		r.svc.Close() // stop admission, drain queue and in-flight queries
		// Persist the per-shape cost statistics next to an opened DB so
		// admission and EXPLAIN restart warm instead of re-learning every
		// shape.
		if cfg.open != "" {
			if err := r.db.SaveShapes(cfg.open); err != nil {
				log.Printf("warning: saving shape statistics: %v", err)
			} else {
				log.Printf("shape statistics saved to %s", cfg.open)
			}
		}
	default: // interrupted before the build finished
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("bye")
	return nil
}

// autoCheckpoint polls the ingest counters and checkpoints the DB whenever
// the applied-mutation or appended-WAL-byte delta since the last checkpoint
// crosses its threshold, so long-running daemons trim the log instead of
// growing it unboundedly. The disk phase of Checkpoint runs against a
// pinned generation without blocking Apply, so polling once a second is
// cheap and a checkpoint in progress never stalls writes.
func autoCheckpoint(ctx context.Context, db *stpq.DB, dir string, everyOps, everyBytes int64) {
	readCounters := func() (ops, bytes int64) {
		c := db.Metrics().Counters
		return c["stpq_ingest_applied_total"], c["stpq_wal_bytes_total"]
	}
	baseOps, baseBytes := readCounters()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		ops, bytes := readCounters()
		if !(everyOps > 0 && ops-baseOps >= everyOps) &&
			!(everyBytes > 0 && bytes-baseBytes >= everyBytes) {
			continue
		}
		start := time.Now()
		err := db.Checkpoint(dir)
		if err != nil {
			// Advance the baseline even on failure: retrying every second
			// against a persistent error (disk full, say) would melt the log.
			log.Printf("auto-checkpoint failed: %v", err)
		} else {
			log.Printf("auto-checkpoint: +%d ops, +%d WAL bytes -> %s in %v (through seq %d)",
				ops-baseOps, bytes-baseBytes, dir, time.Since(start).Round(time.Millisecond), db.WALSeq())
		}
		baseOps, baseBytes = ops, bytes
	}
}

// startPprof serves the net/http/pprof endpoints on their own listener,
// kept off the query port so profiling never competes with admission
// control. Mutex and block profiling run at a low sampling rate: cheap
// enough to leave on, detailed enough to show buffer-pool lock
// contention under load.
func startPprof(addr string) {
	runtime.SetMutexProfileFraction(64) // sample 1/64 of contention events
	runtime.SetBlockProfileRate(int(time.Millisecond))
	go func() {
		// DefaultServeMux carries the /debug/pprof handlers registered by
		// the net/http/pprof import.
		log.Printf("pprof listening on %s", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("pprof listener failed: %v", err)
		}
	}()
}

// buildingHandler answers every request with 503 until the index build
// completes; the body carries the library's not-built error so probes and
// humans see the same message the API would return.
func buildingHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\"error\":%q}\n", stpq.ErrNotBuilt.Error())
	})
}

// loadDB opens a persisted DB or builds a synthetic one.
func loadDB(cfg daemonConfig) (*stpq.DB, error) {
	switch {
	case cfg.open != "":
		if cfg.bgCompact || cfg.compactRuns > 0 {
			log.Printf("warning: -background-compaction/-compact-runs apply to -synthetic only; opened DBs take them from the manifest")
		}
		log.Printf("opening %s", cfg.open)
		db, err := stpq.Open(cfg.open)
		if err != nil {
			return nil, err
		}
		// Open auto-attaches the WAL recorded in the manifest; -wal-dir
		// covers snapshots saved before a log existed.
		if cfg.walDir != "" {
			n, err := db.AttachWAL(cfg.walDir)
			switch {
			case errors.Is(err, stpq.ErrWALAttached):
				log.Printf("WAL already attached via manifest; ignoring -wal-dir")
			case err != nil:
				return nil, err
			default:
				logReplay(db, n)
			}
		}
		return db, nil
	case cfg.synthetic:
		kind := stpq.SRT
		switch cfg.indexKind {
		case "srt":
		case "ir2":
			kind = stpq.IR2
		default:
			return nil, fmt.Errorf("unknown -index %q", cfg.indexKind)
		}
		var strat stpq.ShardStrategy
		switch cfg.strategy {
		case "", "hilbert":
			strat = stpq.ShardHilbert
		case "grid":
			strat = stpq.ShardGrid
		default:
			return nil, fmt.Errorf("unknown -shard-strategy %q", cfg.strategy)
		}
		// A node serving cluster RPC keeps its newest sealed WAL segments
		// across a checkpoint, so a lagging follower can still fetch them.
		retain := 0
		if cfg.rpcAddr != "" {
			retain = 4
		}
		log.Printf("building synthetic dataset: %d objects, %d×%d features, vocab %d, shards %d",
			cfg.objects, cfg.sets, cfg.features, cfg.vocab, cfg.shards)
		db := stpq.New(stpq.Config{
			IndexKind: kind, SignatureBits: cfg.sigBits,
			PageSize: cfg.pageSize, BufferPages: cfg.bufPages,
			ShardCount: cfg.shards, ShardStrategy: strat,
			WALDir: cfg.walDir, WALRetainSegments: retain,
			TraceSampleRate: cfg.traceRate, SlowQueryThreshold: cfg.slowQuery,
			BackgroundCompaction: cfg.bgCompact,
			CompactRuns:          cfg.compactRuns, AutoFlushOps: cfg.flushOps,
		})
		objs, sets := syntheticData(cfg)
		db.AddObjects(objs)
		for _, s := range sets {
			db.AddFeatureSet(s.name, s.feats)
		}
		if err := db.Build(); err != nil {
			return nil, err
		}
		if cfg.walDir != "" {
			// Build replayed any existing log over the deterministic
			// synthetic base (same seed → same base → exact recovery).
			logReplay(db, int(db.Metrics().Counters["stpq_ingest_replayed_total"]))
		}
		return db, nil
	default:
		return nil, errors.New("need a dataset: pass -open <dir> or -synthetic")
	}
}

// featureSet is one named synthetic feature set, in deterministic order.
type featureSet struct {
	name  string
	feats []stpq.Feature
}

// syntheticData generates the deterministic synthetic dataset: same seed →
// same objects, features and keyword spellings in every process, which is
// what lets a follower start from its leader's base and replay its log.
func syntheticData(cfg daemonConfig) ([]stpq.Object, []featureSet) {
	ds := datagen.Synthetic(datagen.SyntheticConfig{
		Objects: cfg.objects, FeaturesPerSet: cfg.features, FeatureSets: cfg.sets,
		Vocab: cfg.vocab, Seed: cfg.seed,
	})
	objs := make([]stpq.Object, len(ds.Objects))
	for i, o := range ds.Objects {
		objs[i] = stpq.Object{ID: o.ID, X: o.Location.X, Y: o.Location.Y}
	}
	sets := make([]featureSet, len(ds.FeatureSets))
	for i, fs := range ds.FeatureSets {
		feats := make([]stpq.Feature, len(fs))
		for j, f := range fs {
			// Synthetic keywords are abstract ids named kw<id>,
			// matching cmd/stpqgen's CSV output.
			var kws []string
			f.Keywords.ForEach(func(id int) { kws = append(kws, fmt.Sprintf("kw%d", id)) })
			feats[j] = stpq.Feature{
				ID: f.ID, X: f.Location.X, Y: f.Location.Y,
				Score: f.Score, Keywords: kws,
			}
		}
		sets[i] = featureSet{name: fmt.Sprintf("set%d", i+1), feats: feats}
	}
	return objs, sets
}

// logReplay reports crash-recovery progress at startup.
func logReplay(db *stpq.DB, n int) {
	if n > 0 {
		log.Printf("WAL replay: recovered %d mutations (through seq %d)", n, db.WALSeq())
	} else {
		log.Printf("WAL attached: no records to replay")
	}
}
