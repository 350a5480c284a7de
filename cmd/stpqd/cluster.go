package main

// cluster.go gives stpqd its cluster roles. Every node is the ordinary
// daemon over the whole DB; -rpc adds the cluster protocol beside its HTTP
// API:
//
//	stpqd -synthetic -wal-dir wal -rpc 127.0.0.1:9090 -addr :8081
//	    a leader: takes writes on /ingest and seals its WAL every
//	    -wal-rotate so followers can fetch the segments.
//
//	stpqd -synthetic -follow 127.0.0.1:9090 -rpc 127.0.0.1:9091 -addr :8082
//	    a follower: replays the leader's sealed WAL segments as they appear.
//
//	stpqd -replicas 127.0.0.1:9090,127.0.0.1:9091 -addr :8080
//	    the coordinator: the single-process HTTP query API, each query
//	    answered by one replica, with retries, failover and optional
//	    hedging (-hedge-after).

import (
	"context"
	"errors"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stpq"
	"stpq/internal/cluster"
	"stpq/internal/serve"
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

// startClusterRoles starts what -rpc and -follow ask of a daemon whose
// service is up: the cluster RPC listener, WAL rotation on a node that has
// a log to ship, and the follower's replication loop. Rotation ends with
// ctx; the returned stop ends the rest, the listener first.
func startClusterRoles(ctx context.Context, cfg daemonConfig, db *stpq.DB, svc *serve.Service) (func(), error) {
	var stops []func()
	stop := func() {
		for _, f := range stops {
			f()
		}
	}
	if cfg.rpcAddr != "" {
		node := cluster.NewNode(cluster.NodeConfig{Service: svc, DB: db, Logf: log.Printf})
		addr, err := node.Start(cfg.rpcAddr)
		if err != nil {
			return nil, err
		}
		stops = append(stops, node.Close)
		log.Printf("cluster RPC on %s", addr)
		if cfg.walRotate > 0 {
			go rotateWAL(ctx, db, cfg.walRotate)
		}
	}
	if cfg.follow != "" {
		src := cluster.NewClient(cfg.follow, 0)
		rep, err := cluster.StartReplica(cluster.ReplicaConfig{DB: db, Source: src, Logf: log.Printf})
		if err != nil {
			src.Close()
			stop()
			return nil, err
		}
		stops = append(stops, rep.Close, src.Close)
		log.Printf("following %s (applied seq %d)", cfg.follow, rep.AppliedSeq())
	}
	return stop, nil
}

// rotateWAL seals the active WAL segment every period so followers always
// have recent history to fetch. A DB without a log has nothing to seal.
func rotateWAL(ctx context.Context, db *stpq.DB, period time.Duration) {
	ticker := time.NewTicker(period)
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

// runCoordinator routes queries to the -replicas endpoints.
func runCoordinator(cfg daemonConfig) error {
	if cfg.pprofAddr != "" {
		startPprof(cfg.pprofAddr)
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Replicas:   cfg.replicas,
		RPCTimeout: cfg.serve.Timeout,
		RetryMax:   cfg.retryMax,
		HedgeAfter: cfg.hedgeAfter,
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	log.Printf("coordinator over %d replicas", len(cfg.replicas))

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
