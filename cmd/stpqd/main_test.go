package main

import (
	"context"
	"flag"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"stpq"
	"stpq/internal/serve"
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
			if cfg.addr != ":8080" || cfg.objects != 20_000 || cfg.vocab != 256 {
				t.Errorf("defaults: %+v", cfg)
			}
			// Workers, queue depth and deadline are the service's defaults
			// (GOMAXPROCS, 64, none; TestConfigDefaults in internal/serve).
			if want := (serve.Config{CacheEntries: 256}); cfg.serve != want {
				t.Errorf("service config %+v, want %+v", cfg.serve, want)
			}
			if walRotateEvery != time.Second {
				t.Errorf("WAL rotation every %v, want 1s (make cluster-smoke's followers rely on it)", walRotateEvery)
			}
			// The resolved dataset: two feature sets behind SRT indexes.
			small := cfg
			small.objects, small.features = 200, 200
			db, err := loadDB(small)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := db.Explain(daemonQuery())
			if err != nil {
				t.Fatal(err)
			}
			if ex.FeatureSets != 2 || ex.Index != "srt" {
				t.Errorf("synthetic DB has %d feature sets behind %q indexes, want 2 behind srt", ex.FeatureSets, ex.Index)
			}
		}},
		{name: "leader", args: []string{"-synthetic", "-wal-dir", "wal"}, check: func(t *testing.T, cfg daemonConfig) {
			if cfg.walDir != "wal" || cfg.follow != "" || cfg.replicas != nil {
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
			if cfg.hedgeAfter.String() != "20ms" {
				t.Errorf("coordinator hedge %v, want 20ms", cfg.hedgeAfter)
			}
		}},
		{name: "trace sample reaches the service", args: []string{"-synthetic", "-trace-sample", "0.5", "-slow-query", "2ms"}, check: func(t *testing.T, cfg daemonConfig) {
			if cfg.traceRate != 0.5 || cfg.slowQuery != 2*time.Millisecond {
				t.Errorf("trace rate %v, slow query %v", cfg.traceRate, cfg.slowQuery)
			}
		}},
		{name: "cost shedding is gone", args: []string{"-synthetic", "-max-inflight-cost", "1ns"}, wantErr: "not defined"},
		{name: "follower owns no log", args: []string{"-synthetic", "-follow", "h:1", "-wal-dir", "wal"}, wantErr: "-follow and -wal-dir"},
		{name: "opened DB keeps its shards", args: []string{"-open", "db", "-shards", "4"}, wantErr: "-shards applies to -synthetic only"},
		{name: "opened DB keeps its data", args: []string{"-open", "db", "-objects", "500"}, wantErr: "-objects applies to -synthetic only"},
		{name: "opened DB keeps its pool size", args: []string{"-open", "db", "-buffer-pages", "32"}, wantErr: "-buffer-pages applies to -synthetic only"},
		{name: "opened DB keeps its merge mode", args: []string{"-open", "db", "-background-compaction"}, wantErr: "-background-compaction applies to -synthetic only"},
		{name: "opened DB keeps its run watermark", args: []string{"-open", "db", "-compact-runs", "2"}, wantErr: "-compact-runs applies to -synthetic only"},
		{name: "opened DB takes writes and checkpoints", args: []string{"-open", "db", "-wal-dir", "wal", "-checkpoint-every-ops", "10", "-checkpoint-dir", "ck", "-cache", "-1"}, check: func(t *testing.T, cfg daemonConfig) {
			if cfg.walDir != "wal" || cfg.ckptOps != 10 || cfg.checkpointDir() != "ck" || cfg.serve.CacheEntries != -1 {
				t.Errorf("opened daemon: %+v", cfg)
			}
		}},
		{name: "replicas without an endpoint", args: []string{"-replicas", " , "}, wantErr: "at least one host:port"},
		{name: "empty replicas", args: []string{"-replicas", ""}, wantErr: "at least one host:port"},
		{name: "one dataset", args: []string{"-open", "db", "-synthetic"}, wantErr: "either -open or -synthetic"},
		{name: "retired flag", args: []string{"-cluster-node"}, wantErr: "not defined"},
		{name: "signature files are gone", args: []string{"-synthetic", "-signature-bits", "8"}, wantErr: "not defined"},
		{name: "cluster RPC folds into -addr", args: []string{"-synthetic", "-rpc", ":9090"}, wantErr: "not defined"},
		// Knobs nothing set, now the values they defaulted to.
		{name: "two synthetic sets", args: []string{"-synthetic", "-sets", "3"}, wantErr: "not defined"},
		{name: "SRT only", args: []string{"-synthetic", "-index", "ir2"}, wantErr: "not defined"},
		{name: "library page size", args: []string{"-synthetic", "-page-size", "1024"}, wantErr: "not defined"},
		{name: "Hilbert shards", args: []string{"-synthetic", "-shard-strategy", "grid"}, wantErr: "not defined"},
		{name: "GOMAXPROCS workers", args: []string{"-synthetic", "-workers", "8"}, wantErr: "not defined"},
		{name: "queue of 64", args: []string{"-synthetic", "-queue", "128"}, wantErr: "not defined"},
		{name: "no service deadline", args: []string{"-synthetic", "-timeout", "2s"}, wantErr: "not defined"},
		{name: "checkpoints count ops", args: []string{"-synthetic", "-checkpoint-every-bytes", "1024"}, wantErr: "not defined"},
		{name: "rotation every second", args: []string{"-synthetic", "-wal-rotate", "5s"}, wantErr: "not defined"},
		{name: "two retries", args: []string{"-replicas", "a:1", "-retry-max", "3"}, wantErr: "not defined"},
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

// TestFlagTable keeps DESIGN.md §15 true of stpqd: its flag table names
// every flag newFlagSet defines and no other, and its heading states
// their count.
func TestFlagTable(t *testing.T) {
	count, names := designTable(t, "../../DESIGN.md", "**`stpqd` flags**")
	var flags []string
	newFlagSet(&daemonConfig{}).VisitAll(func(f *flag.Flag) { flags = append(flags, "-"+f.Name) })
	slices.Sort(flags)
	if !slices.Equal(names, flags) {
		t.Errorf("DESIGN.md §15 flag table names %q, stpqd defines %q", names, flags)
	}
	if count != len(flags) {
		t.Errorf("DESIGN.md §15 says stpqd has %d flags, it has %d", count, len(flags))
	}
}

// designTable reads the DESIGN.md table under the paragraph that starts
// with heading: the count the heading states in parentheses, and the
// sorted code spans of the table's first column.
func designTable(t *testing.T, path, heading string) (int, []string) {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	at := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, heading) })
	if at < 0 {
		t.Fatalf("%s has no paragraph starting %s", path, heading)
	}
	m := regexp.MustCompile(`\((\d+)`).FindStringSubmatch(lines[at])
	if m == nil {
		t.Fatalf("%s: %q states no count", path, lines[at])
	}
	count, _ := strconv.Atoi(m[1])
	code := regexp.MustCompile("`([^`]+)`")
	var names []string
	rows := 0
	for _, l := range lines[at+1:] {
		if !strings.HasPrefix(l, "|") {
			if rows > 0 {
				break
			}
			continue
		}
		if rows++; rows <= 2 { // the header and the separator
			continue
		}
		for _, c := range code.FindAllStringSubmatch(strings.Split(l, "|")[1], -1) {
			names = append(names, c[1])
		}
	}
	slices.Sort(names)
	return count, names
}

// daemonDB builds the DB a command line would serve.
func daemonDB(t *testing.T, args ...string) *stpq.DB {
	t.Helper()
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	db, err := loadDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// daemonQuery is a query every synthetic DB answers.
func daemonQuery() stpq.Query {
	return stpq.Query{K: 3, Radius: 0.05, Lambda: 0.5, Keywords: map[string][]string{"set1": {"kw1"}, "set2": {"kw3"}}}
}

// TestTraceSampleRate: -trace-sample is the share of queries the daemon
// traces, whatever layer draws the decision. 4,000 draws at 0.25 have a
// standard deviation of 0.0068, so ±0.03 is ±4.4σ.
func TestTraceSampleRate(t *testing.T) {
	const n = 4000
	cfg, err := parseFlags([]string{"-synthetic", "-objects", "300", "-features", "300", "-cache", "-1", "-trace-sample", "0.25"})
	if err != nil {
		t.Fatal(err)
	}
	db, err := loadDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.New(db, cfg.serve)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	traced := 0
	for i := 0; i < n; i++ {
		resp, err := svc.Do(context.Background(), daemonQuery())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Stats.Trace != nil {
			traced++
		}
	}
	if share := float64(traced) / n; share < 0.22 || share > 0.28 {
		t.Errorf("traced %d of %d queries (%.3f), want 0.25 ± 0.03", traced, n, share)
	}
}

// TestOpenHonoursTraceFlags: a DB served with -open takes its trace policy
// from the command line, not from the directory it was saved to.
func TestOpenHonoursTraceFlags(t *testing.T) {
	dir := t.TempDir()
	if err := daemonDB(t, "-synthetic", "-objects", "300", "-features", "300").Save(dir); err != nil {
		t.Fatal(err)
	}
	t.Run("slow-query", func(t *testing.T) {
		db := daemonDB(t, "-open", dir, "-slow-query", "1ns")
		if _, _, err := db.TopK(daemonQuery()); err != nil {
			t.Fatal(err)
		}
		if len(db.SlowQueries(0)) == 0 {
			t.Error("-slow-query 1ns recorded no slow query")
		}
	})
	t.Run("trace-sample", func(t *testing.T) {
		db := daemonDB(t, "-open", dir, "-trace-sample", "1")
		_, st, err := db.TopK(daemonQuery())
		if err != nil {
			t.Fatal(err)
		}
		if st.Trace == nil || !db.RecentQueries(1)[0].Sampled {
			t.Error("-trace-sample 1 left the query untraced")
		}
	})
}

// TestBadTraceFlagsRefused: loadDB fails on a trace policy the library
// rejects, on both dataset paths.
func TestBadTraceFlagsRefused(t *testing.T) {
	dir := t.TempDir()
	if err := daemonDB(t, "-synthetic", "-objects", "100", "-features", "100").Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-synthetic", "-objects", "100", "-features", "100", "-trace-sample", "1.5"},
		{"-synthetic", "-objects", "100", "-features", "100", "-trace-sample", "NaN"},
		{"-open", dir, "-slow-query", "-1ms"},
	} {
		cfg, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loadDB(cfg); err == nil || !strings.Contains(err.Error(), "-trace-sample") {
			t.Errorf("%q: err %v, want the trace flags refused", args, err)
		}
	}
}
