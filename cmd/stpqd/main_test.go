package main

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseFlags pins which role a command line selects — daemon, cluster
// replica (leader or follower), coordinator — and the combinations that
// are refused before anything starts.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty = accepted
		check   func(t *testing.T, cfg daemonConfig)
	}{
		{name: "daemon", args: []string{"-synthetic"}, check: func(t *testing.T, cfg daemonConfig) {
			if cfg.walDir != "" || cfg.follow != "" || cfg.replicas != nil {
				t.Errorf("plain daemon has cluster roles: wal %q follow %q replicas %v", cfg.walDir, cfg.follow, cfg.replicas)
			}
			if cfg.addr != ":8080" || cfg.objects != 20_000 || cfg.serve.QueueDepth != 64 || cfg.serve.CacheEntries != 256 {
				t.Errorf("defaults: %+v", cfg)
			}
		}},
		{name: "leader", args: []string{"-synthetic", "-wal-dir", "wal"}, check: func(t *testing.T, cfg daemonConfig) {
			if cfg.walDir != "wal" || cfg.walRotate != time.Second || cfg.follow != "" || cfg.replicas != nil {
				t.Errorf("leader: %+v", cfg)
			}
		}},
		{name: "follower", args: []string{"-open", "db", "-follow", "127.0.0.1:8081", "-addr", ":8082"}, check: func(t *testing.T, cfg daemonConfig) {
			if cfg.follow != "127.0.0.1:8081" || cfg.addr != ":8082" || cfg.open != "db" {
				t.Errorf("follower: %+v", cfg)
			}
		}},
		{name: "coordinator", args: []string{"-replicas", " a:1, b:2,,c:3 ", "-hedge-after", "20ms"}, check: func(t *testing.T, cfg daemonConfig) {
			if want := []string{"a:1", "b:2", "c:3"}; !reflect.DeepEqual(cfg.replicas, want) {
				t.Errorf("replicas %q, want %q", cfg.replicas, want)
			}
			if cfg.hedgeAfter.String() != "20ms" || cfg.retryMax != 2 {
				t.Errorf("coordinator knobs: hedge %v retry %d", cfg.hedgeAfter, cfg.retryMax)
			}
		}},
		{name: "trace sample reaches the service", args: []string{"-synthetic", "-trace-sample", "0.5"}, check: func(t *testing.T, cfg daemonConfig) {
			if cfg.traceRate != 0.5 || cfg.serve.TraceSample != 0.5 {
				t.Errorf("trace rate %v, service %v", cfg.traceRate, cfg.serve.TraceSample)
			}
		}},
		{name: "follower owns no log", args: []string{"-synthetic", "-follow", "h:1", "-wal-dir", "wal"}, wantErr: "-follow and -wal-dir"},
		{name: "opened DB keeps its shards", args: []string{"-open", "db", "-shards", "4"}, wantErr: "-shards applies to -synthetic only"},
		{name: "replicas without an endpoint", args: []string{"-replicas", " , "}, wantErr: "at least one host:port"},
		{name: "empty replicas", args: []string{"-replicas", ""}, wantErr: "at least one host:port"},
		{name: "one dataset", args: []string{"-open", "db", "-synthetic"}, wantErr: "either -open or -synthetic"},
		{name: "retired flag", args: []string{"-cluster-node"}, wantErr: "not defined"},
		{name: "signature files are gone", args: []string{"-synthetic", "-signature-bits", "8"}, wantErr: "not defined"},
		{name: "cluster RPC folds into -addr", args: []string{"-synthetic", "-rpc", ":9090"}, wantErr: "not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := parseFlags(c.args)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, cfg)
		})
	}
}
