// Command stpqd serves top-k spatio-textual preference queries over HTTP:
// a built stpq.DB behind the internal/serve worker pool, with a bounded
// admission queue and a result cache.
//
// Usage:
//
//	stpqd -synthetic -objects 20000 -features 20000 -addr :8080
//	stpqd -synthetic -shards 4            # data laid out in 4 spatial shards
//	stpqd -synthetic -wal-dir data/wal    # live ingest + crash recovery
//	stpqd -open data/db -cache 1024 -trace-sample 0.01
//	stpqd -synthetic -follow leader:8080       # a cluster follower (cluster.go)
//
// Endpoints:
//
//	POST /query    {"k":5,"radius":0.1,"lambda":0.5,"keywords":{"set":["kw1"]}}
//	POST /ingest   {"objects":[...],"delete_objects":[...],"features":{...}}
//	GET  /healthz  liveness; 503 until the index build completes
//	GET  /readyz   alias of /healthz
//	GET  /metrics  Prometheus text format
//	GET  /info     dataset shape (used by stpqload); ingest.walSeq is the
//	               replication watermark a coordinator routes by
//	GET  /wal/segments?from=N  a sealed WAL segment, for followers
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
	addr, open        string
	synthetic         bool
	objects, features int
	vocab             int
	seed              int64
	bufPages          int
	shards            int
	pprofAddr         string
	walDir            string
	traceRate         float64
	slowQuery         time.Duration
	bgCompact         bool
	compactRuns       int
	flushOps          int
	ckptOps           int64
	ckptDir           string
	serve             serve.Config

	// Cluster roles: a daemon with walDir is a leader that seals a WAL
	// segment every walRotateEvery, one with follow replays that leader's
	// WAL, and a non-empty replicas list makes the process the coordinator
	// instead of a daemon.
	follow     string
	replicas   []string
	hedgeAfter time.Duration
}

const (
	// syntheticSets is the number of feature sets -synthetic generates.
	syntheticSets = 2
	// walRotateEvery is how often a daemon with a WAL seals its active
	// segment, so followers can fetch it from /wal/segments: a follower's
	// reads lag its leader's by up to this long.
	walRotateEvery = time.Second
)

// syntheticOnly lists the flags that shape a -synthetic build. An opened
// DB's data and layout come from its directory, so -open refuses them.
var syntheticOnly = []string{
	"objects", "features", "vocab", "seed", "buffer-pages", "shards",
	"background-compaction", "compact-runs", "auto-flush-ops",
}

// newFlagSet defines every stpqd flag on a fresh FlagSet, writing into cfg.
func newFlagSet(cfg *daemonConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("stpqd", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.open, "open", "", "directory of a DB written by stpq save")
	fs.BoolVar(&cfg.synthetic, "synthetic", false, "serve a generated synthetic dataset")
	fs.IntVar(&cfg.objects, "objects", 20_000, "-synthetic: data objects")
	fs.IntVar(&cfg.features, "features", 20_000, "-synthetic: feature objects per set")
	fs.IntVar(&cfg.vocab, "vocab", 256, "-synthetic: vocabulary size")
	fs.Int64Var(&cfg.seed, "seed", 1, "-synthetic: random seed")
	fs.IntVar(&cfg.bufPages, "buffer-pages", 0, "-synthetic: buffer pool pages per index (0 = library default)")
	fs.IntVar(&cfg.shards, "shards", 0, "-synthetic: lay the data out in N spatial shards under the one engine (0 or 1 = unsharded)")
	fs.IntVar(&cfg.serve.CacheEntries, "cache", 256, "result cache entries (negative disables)")
	fs.StringVar(&cfg.walDir, "wal-dir", "", "write-ahead log directory: enables POST /ingest and replays existing records on startup")
	fs.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); enables low-rate mutex and block profiling")
	fs.Float64Var(&cfg.traceRate, "trace-sample", 0, "fraction of queries (0..1) served with a full span tree in their event record")
	fs.DurationVar(&cfg.slowQuery, "slow-query", 0, "queries at least this slow land in /debug/slow with a complete trace (0 = off)")

	fs.BoolVar(&cfg.bgCompact, "background-compaction", false, "-synthetic: seal full deltas into runs and merge them on a background goroutine instead of stalling Apply")
	fs.IntVar(&cfg.compactRuns, "compact-runs", 0, "-synthetic: sealed-run watermark that wakes the background compactor (0 = default)")
	fs.IntVar(&cfg.flushOps, "auto-flush-ops", 0, "-synthetic: delta size that triggers a merge or run seal (0 = default, negative = never)")
	fs.Int64Var(&cfg.ckptOps, "checkpoint-every-ops", 0, "checkpoint automatically after this many applied mutations (0 = off; needs a WAL)")
	fs.StringVar(&cfg.ckptDir, "checkpoint-dir", "", "directory auto-checkpoints are written to (default: the -open directory)")

	fs.StringVar(&cfg.follow, "follow", "", "run as a read replica replaying the WAL segments the leader at this host:port (its -addr) serves on GET /wal/segments")
	fs.Func("replicas", "run the coordinator over these comma-separated replica host:port addresses (each replica's -addr) instead of serving a DB", func(s string) error {
		cfg.replicas = splitEndpoints(s)
		return nil
	})
	fs.DurationVar(&cfg.hedgeAfter, "hedge-after", 0, "coordinator: duplicate a replica call on the next replica after this delay (0 = off)")
	return fs
}

// parseFlags parses the command line on its own FlagSet and rejects the
// flag combinations no mode accepts.
func parseFlags(args []string) (daemonConfig, error) {
	var cfg daemonConfig
	fs := newFlagSet(&cfg)
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if cfg.open != "" {
		for _, name := range syntheticOnly {
			if set[name] {
				return cfg, fmt.Errorf("-%s applies to -synthetic only (an opened DB's data and layout come from its directory)", name)
			}
		}
	}
	switch {
	case cfg.open != "" && cfg.synthetic:
		return cfg, errors.New("use either -open or -synthetic, not both")
	case cfg.follow != "" && cfg.walDir != "":
		return cfg, errors.New("-follow and -wal-dir are mutually exclusive: a follower replays the leader's log, it does not own one")
	case set["replicas"] && len(cfg.replicas) == 0:
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
	if cfg.ckptOps > 0 && cfg.checkpointDir() == "" {
		return errors.New("-checkpoint-every-ops needs -checkpoint-dir (or -open)")
	}
	// The listener comes up before the index: a swappable handler answers
	// 503 (ErrNotBuilt) until the build completes, then the real service
	// handler takes over.
	var handler atomic.Pointer[http.Handler]
	building := buildingHandler()
	handler.Store(&building)
	front := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	})

	type running struct {
		svc       *serve.Service
		stopRoles func()
	}
	svcc := make(chan running, 1)
	build := func(ctx context.Context) error {
		log.Printf("healthz 503 until the index is built")
		db, err := loadDB(cfg)
		if err != nil {
			return err
		}
		svc, err := serve.New(db, cfg.serve)
		if err != nil {
			return err
		}
		// The background compactor yields while admitted queries are
		// waiting for a worker: foreground reads outrank merge work.
		db.SetCompactionGate(svc.Saturated)
		if cfg.ckptOps > 0 {
			go autoCheckpoint(ctx, db, cfg.checkpointDir(), cfg.ckptOps)
		}
		stopRoles, err := startClusterRoles(ctx, cfg, db)
		if err != nil {
			svc.Close()
			return err
		}
		ready := svc.Handler()
		handler.Store(&ready)
		log.Printf("index ready: serving queries")
		svcc <- running{svc, stopRoles}
		return nil
	}
	drain := func() {
		select {
		case r := <-svcc:
			log.Printf("result cache hit fraction: %.1f%%", 100*r.svc.CacheHitFraction())
			r.stopRoles()
			r.svc.Close() // stop admission, drain queue and in-flight queries
		default: // interrupted before the build finished
		}
	}
	return serveUntilSignal(cfg, front, build, drain)
}

// serveUntilSignal is every role's server lifecycle. It serves h on
// cfg.addr (and pprof on cfg.pprofAddr) and runs start on its own
// goroutine with a context that ends at SIGINT/SIGTERM; an error from
// start closes the listener at once and is returned. At the signal, drain
// runs, then the listener shuts down gracefully within 10 s.
func serveUntilSignal(cfg daemonConfig, h http.Handler, start func(context.Context) error, drain func()) error {
	if cfg.pprofAddr != "" {
		startPprof(cfg.pprofAddr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: cfg.addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on %s", cfg.addr)

	startErrc := make(chan error, 1)
	go func() {
		if err := start(ctx); err != nil {
			startErrc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case err := <-startErrc:
		shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining")
	drain()
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

// autoCheckpoint polls the applied-mutation counter and checkpoints the DB
// whenever it has grown by everyOps since the last checkpoint, so
// long-running daemons trim the log instead of growing it unboundedly. The
// disk phase of Checkpoint runs against a pinned generation without
// blocking Apply, so polling once a second is cheap and a checkpoint in
// progress never stalls writes.
func autoCheckpoint(ctx context.Context, db *stpq.DB, dir string, everyOps int64) {
	applied := func() int64 { return db.Metrics().Counters["stpq_ingest_applied_total"] }
	base := applied()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		ops := applied()
		if ops-base < everyOps {
			continue
		}
		start := time.Now()
		if err := db.Checkpoint(dir); err != nil {
			// Advance the baseline even on failure: retrying every second
			// against a persistent error (disk full, say) would melt the log.
			log.Printf("auto-checkpoint failed: %v", err)
		} else {
			log.Printf("auto-checkpoint: +%d ops -> %s in %v (through seq %d)",
				ops-base, dir, time.Since(start).Round(time.Millisecond), db.WALSeq())
		}
		base = ops
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

// loadDB opens a persisted DB or builds a synthetic one, with the trace
// policy of -trace-sample and -slow-query.
func loadDB(cfg daemonConfig) (*stpq.DB, error) {
	switch {
	case cfg.open != "":
		log.Printf("opening %s", cfg.open)
		db, err := stpq.Open(cfg.open)
		if err != nil {
			return nil, err
		}
		if err := setTraceSampling(db, cfg); err != nil {
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
		log.Printf("building synthetic dataset: %d objects, %d×%d features, vocab %d, shards %d",
			cfg.objects, syntheticSets, cfg.features, cfg.vocab, cfg.shards)
		db := stpq.New(stpq.Config{
			BufferPages: cfg.bufPages, ShardCount: cfg.shards, WALDir: cfg.walDir,
			BackgroundCompaction: cfg.bgCompact,
			CompactRuns:          cfg.compactRuns, AutoFlushOps: cfg.flushOps,
		})
		if err := setTraceSampling(db, cfg); err != nil {
			return nil, err
		}
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

// setTraceSampling applies -trace-sample and -slow-query, naming the flags
// when the library rejects their values.
func setTraceSampling(db *stpq.DB, cfg daemonConfig) error {
	if err := db.SetTraceSampling(cfg.traceRate, cfg.slowQuery); err != nil {
		return fmt.Errorf("-trace-sample %v / -slow-query %v: %w", cfg.traceRate, cfg.slowQuery, err)
	}
	return nil
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
		Objects: cfg.objects, FeaturesPerSet: cfg.features, FeatureSets: syntheticSets,
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
