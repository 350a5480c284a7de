package main

// cluster.go is stpqd's distributed mode — three roles of the same binary:
//
//	stpqd -synthetic -write-cluster-map map.json \
//	      -cluster-leaders 127.0.0.1:9090,127.0.0.1:9091,127.0.0.1:9092
//	    partitions the dataset, writes the map, exits.
//
//	stpqd -synthetic -cluster-node -node-id 0 -cluster-map map.json -rpc :9090
//	    serves cell 0 over the cluster RPC protocol (plus the usual HTTP
//	    endpoints on -addr for debugging). With -wal-dir it is the cell's
//	    leader and rotates its WAL every -wal-rotate so followers can pull
//	    sealed segments; with -follow <leader> it is a read replica fed by
//	    WAL log shipping.
//
//	stpqd -cluster-coordinator -cluster-map map.json -addr :8080
//	    serves the single-process HTTP query API, answered by scatter-
//	    gather over the cluster with retries, failover and optional
//	    hedging (-hedge-after).

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stpq"
	"stpq/internal/cluster"
	"stpq/internal/serve"
	"stpq/internal/shard"
)

// clusterConfig carries the parsed cluster flags.
type clusterConfig struct {
	node, coordinator bool
	mapPath           string
	nodeID            int
	rpcAddr           string
	follow            string
	walRotate         time.Duration
	writeMap          string
	leaders           string
	hedgeAfter        time.Duration
	retryMax          int
	parallelism       int
}

// runWriteClusterMap partitions the synthetic dataset across the given
// leader endpoints and writes the partition map.
func runWriteClusterMap(cfg daemonConfig) error {
	if !cfg.synthetic {
		return errors.New("-write-cluster-map needs -synthetic (the map partitions a generated dataset)")
	}
	if cfg.cluster.leaders == "" {
		return errors.New("-write-cluster-map needs -cluster-leaders host:port,host:port,...")
	}
	leaders := splitEndpoints(cfg.cluster.leaders)
	strat := shard.HilbertRuns
	if cfg.strategy == "grid" {
		strat = shard.FixedGrid
	}
	objs, _ := syntheticData(cfg)
	m, err := cluster.BuildMap(objs, leaders, strat)
	if err != nil {
		return err
	}
	if err := m.Save(cfg.cluster.writeMap); err != nil {
		return err
	}
	log.Printf("wrote %s: %d cells (%s) over %d objects", cfg.cluster.writeMap,
		m.Partition.Cells, strat, len(objs))
	return nil
}

// splitEndpoints parses a comma-separated endpoint list.
func splitEndpoints(s string) []string {
	var out []string
	for _, ep := range strings.Split(s, ",") {
		if ep = strings.TrimSpace(ep); ep != "" {
			out = append(out, ep)
		}
	}
	return out
}

// loadCellDB builds this node's DB: the cell's objects under the map's
// partition, every feature set in full (feature replication is what makes
// per-node scores exact global scores).
func loadCellDB(cfg daemonConfig, m cluster.Map) (*stpq.DB, error) {
	if cfg.open != "" {
		// An opened DB is already the cell's slice (saved by an earlier
		// cluster node); serve it as-is.
		return stpq.Open(cfg.open)
	}
	if !cfg.synthetic {
		return nil, errors.New("cluster node needs a dataset: pass -open <dir> or -synthetic")
	}
	kind := stpq.SRT
	switch cfg.indexKind {
	case "srt":
	case "ir2":
		kind = stpq.IR2
	default:
		return nil, fmt.Errorf("unknown -index %q", cfg.indexKind)
	}
	if cfg.shards > 1 {
		return nil, errors.New("-shards does not apply to -cluster-node (the cluster map is the partition)")
	}
	walDir := cfg.walDir
	if cfg.cluster.follow != "" && walDir != "" {
		return nil, errors.New("-follow and -wal-dir are mutually exclusive: a follower replays the leader's log, it does not own one")
	}
	db := stpq.New(stpq.Config{
		IndexKind: kind, WALDir: walDir,
		WALRetainSegments: 4,
		TraceSampleRate:   cfg.traceRate, SlowQueryThreshold: cfg.slowQuery,
	})
	objs, sets := syntheticData(cfg)
	cell := m.PartitionObjects(objs, cfg.cluster.nodeID)
	log.Printf("cell %d: %d of %d objects", cfg.cluster.nodeID, len(cell), len(objs))
	db.AddObjects(cell)
	for _, s := range sets {
		db.AddFeatureSet(s.name, s.feats)
	}
	if err := db.Build(); err != nil {
		return nil, err
	}
	return db, nil
}

// runClusterNode serves one partition cell: cluster RPC on -rpc, the usual
// HTTP endpoints on -addr, WAL rotation when leading, log-shipping
// replication when following.
func runClusterNode(cfg daemonConfig) error {
	if cfg.cluster.mapPath == "" {
		return errors.New("-cluster-node needs -cluster-map")
	}
	m, err := cluster.LoadMap(cfg.cluster.mapPath)
	if err != nil {
		return err
	}
	if cfg.cluster.nodeID < 0 || cfg.cluster.nodeID >= len(m.Nodes) {
		return fmt.Errorf("-node-id %d out of range: map has %d cells", cfg.cluster.nodeID, len(m.Nodes))
	}
	if cfg.pprofAddr != "" {
		startPprof(cfg.pprofAddr)
	}
	db, err := loadCellDB(cfg, m)
	if err != nil {
		return err
	}
	svc, err := serve.New(db, cfg.serve)
	if err != nil {
		return err
	}
	defer svc.Close()

	node := cluster.NewNode(cluster.NodeConfig{
		NodeID:  cfg.cluster.nodeID,
		Service: svc,
		DB:      db,
		Logf:    log.Printf,
	})
	addr, err := node.Start(cfg.cluster.rpcAddr)
	if err != nil {
		return err
	}
	defer node.Close()
	log.Printf("cluster node %d: RPC on %s", cfg.cluster.nodeID, addr)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Leader: seal the active WAL segment periodically so followers always
	// have recent history to fetch.
	if cfg.walDir != "" && cfg.cluster.walRotate > 0 {
		go func() {
			ticker := time.NewTicker(cfg.cluster.walRotate)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := db.WALRotate(); err != nil && !errors.Is(err, stpq.ErrNoWAL) {
						log.Printf("WAL rotate: %v", err)
					}
				}
			}
		}()
	}

	// Follower: pull sealed segments from the leader and replay them.
	if cfg.cluster.follow != "" {
		src := cluster.NewClient(cfg.cluster.follow, 0)
		defer src.Close()
		rep, err := cluster.StartReplica(cluster.ReplicaConfig{
			DB: db, Source: src, Logf: log.Printf,
		})
		if err != nil {
			return err
		}
		defer rep.Close()
		log.Printf("following %s (applied seq %d)", cfg.cluster.follow, rep.AppliedSeq())
	}

	// The regular HTTP endpoints stay up on -addr for health probes,
	// metrics and debugging.
	srv := &http.Server{Addr: cfg.addr, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("HTTP on %s", cfg.addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down cluster node %d", cfg.cluster.nodeID)
	node.Close()
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

// runCoordinator serves scatter-gather queries over the cluster.
func runCoordinator(cfg daemonConfig) error {
	if cfg.cluster.mapPath == "" {
		return errors.New("-cluster-coordinator needs -cluster-map")
	}
	m, err := cluster.LoadMap(cfg.cluster.mapPath)
	if err != nil {
		return err
	}
	if cfg.pprofAddr != "" {
		startPprof(cfg.pprofAddr)
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Map:         m,
		Parallelism: cfg.cluster.parallelism,
		RPCTimeout:  cfg.serve.Timeout,
		RetryMax:    cfg.cluster.retryMax,
		HedgeAfter:  cfg.cluster.hedgeAfter,
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	log.Printf("coordinator over %d nodes (map %s)", len(m.Nodes), cfg.cluster.mapPath)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: cfg.addr, Handler: coord.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("HTTP on %s", cfg.addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down coordinator")
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
