package main

// cluster.go gives stpqd its cluster roles. Every node is the ordinary
// daemon over the whole DB, and every role speaks its HTTP API on -addr:
//
//	stpqd -synthetic -wal-dir wal -addr 127.0.0.1:8081
//	    a leader: takes writes on /ingest and seals its WAL every second
//	    (walRotateEvery), so followers can fetch the segments from its
//	    GET /wal/segments.
//
//	stpqd -synthetic -follow 127.0.0.1:8081 -addr 127.0.0.1:8082
//	    a follower: replays the leader's sealed WAL segments as they appear.
//
//	stpqd -replicas 127.0.0.1:8081,127.0.0.1:8082 -addr :8080
//	    the coordinator: the single-process HTTP query API, each /query
//	    forwarded to one replica's /query, with retries, failover and
//	    optional hedging (-hedge-after).

import (
	"context"
	"errors"
	"log"
	"strings"
	"time"

	"stpq"
	"stpq/internal/cluster"
)

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

// startClusterRoles starts what a daemon's role asks of it once its
// service is up: WAL rotation on a leader (any DB with a log to ship) and
// the follower's replication loop. Rotation ends with ctx; the returned
// stop ends the replication loop.
func startClusterRoles(ctx context.Context, cfg daemonConfig, db *stpq.DB) (func(), error) {
	if db.IngestStatus().WALAttached {
		go rotateWAL(ctx, db)
	}
	if cfg.follow == "" {
		return func() {}, nil
	}
	src := cluster.NewLeader(cfg.follow, 0)
	rep, err := cluster.StartReplica(cluster.ReplicaConfig{DB: db, Source: src, Logf: log.Printf})
	if err != nil {
		src.Close()
		return nil, err
	}
	log.Printf("following %s (applied seq %d)", cfg.follow, rep.AppliedSeq())
	return func() { rep.Close(); src.Close() }, nil
}

// rotateWAL seals the active WAL segment every walRotateEvery so followers
// always have recent history to fetch. A DB without a log has nothing to
// seal.
func rotateWAL(ctx context.Context, db *stpq.DB) {
	ticker := time.NewTicker(walRotateEvery)
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
}

// runCoordinator routes queries to the -replicas endpoints. Each attempt
// on a replica is bounded by cluster.DefaultTimeout, and a query retries
// on another replica at most twice (the coordinator's defaults).
func runCoordinator(cfg daemonConfig) error {
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Replicas:   cfg.replicas,
		HedgeAfter: cfg.hedgeAfter,
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	log.Printf("coordinator over %d replicas", len(cfg.replicas))
	return serveUntilSignal(cfg, coord.Handler(), func(context.Context) error { return nil }, func() {})
}
