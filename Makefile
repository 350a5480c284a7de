GO ?= go

.PHONY: build test race vet fmt-check lint cover loc bench-check bench-smoke bench-compare experiments alloc-regression fuzz-smoke examples-smoke pool-soak serve-smoke ingest-smoke compaction-smoke cluster-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# gofmt must have nothing to rewrite anywhere in the repository, bench/
# included (gofmt walks directories, not modules).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Coverage profile across every package, with a per-function summary. CI
# uploads the profile as a build artifact; render it locally with
# `go tool cover -html=cover.out`.
COVER_OUT ?= cover.out
cover:
	$(GO) test -coverprofile=$(COVER_OUT) -covermode=atomic ./...
	$(GO) tool cover -func=$(COVER_OUT) | tail -n 1

# Static analysis and vulnerability scan. Each tool is optional locally —
# install with `go install honnef.co/go/tools/cmd/staticcheck@latest` and
# `go install golang.org/x/vuln/cmd/govulncheck@latest` — but CI runs both.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

# Non-test Go lines outside bench/: the size ROADMAP tracks from one
# re-anchor to the next.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# bench/ is a Go module of its own (it imports stpq/internal/...), so
# `go build ./...`, `go vet ./...` and `go test ./...` at the root neither
# compile, vet nor test it. This vets it and runs its tests — all seven
# workloads at 2 % scale against the oracle, about 8 s — and is what catches
# a change to an API the benchmark calls.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# One small data point each of the range, the influence and the NN variant,
# one iteration: catches bit-rot in the benchmark harness, and runs STPS's
# eager combination generation under each variant's rule (2r, the floor,
# cells that can meet) and the Voronoi cell builder (Figure 13, both index
# kinds, a fresh engine per query), without the cost of a full sweep. No
# BENCHMARK.json workload runs STDS, so Table 3 (batched STDS on both index
# kinds) and the batch ablation (batched and single-object STDS) ride along:
# every lens of the one feature stream is run here. Figure 7's point runs a
# second time behind 32-page pools (BenchmarkFig7Cold), so the miss path —
# a page view of a frame just read, an eviction beside it — runs once too.
# Figure 13 builds every cell it needs, so cell building dominates it; the
# warm-store NN query (BenchmarkAblationVoronoiCache/one-engine: one engine
# whose cell store an untimed pass filled) runs the cells rule's reach grid
# and the polygon search on their own. BenchmarkBuild runs DB.Build once per
# index kind: the interning pass and the concurrent bulk loads.
# BenchmarkEncode2D/4D run the bulk loaders' Hilbert keys (the automaton
# walk) on their own, BenchmarkPageScan the feature stream's page
# kernel (the counted keyword scan and the price of each slot it meets),
# and BenchmarkSearchPolygon the NN variant's object retrieval over
# cell-sized regions (the containment box, then Contains).
# BenchmarkCoordinator/nodes=1 routes one query through a one-replica
# cluster's HTTP front, so the cluster benchmark cannot rot either.
bench-smoke:
	$(GO) test -run NONE -bench 'BenchmarkFig(7|7Cold|10|13)/a_features=10000|BenchmarkTable3|BenchmarkAblationBatchSTDS|BenchmarkAblationVoronoiCache/one-engine|BenchmarkBuild' -benchtime 1x .
	$(GO) test -run NONE -bench 'BenchmarkEncode(2|4)D|BenchmarkPageScan|BenchmarkSearchPolygon' -benchtime 1x ./internal/hilbert/ ./internal/rtree/
	$(GO) test -run NONE -bench 'BenchmarkCoordinator/nodes=1$$' -benchtime 1x ./internal/cluster/

# Before/after benchmark comparison for perf work: Figure 7's range sweep,
# its 10 K point behind 32-page pools (the miss path), Figure 10's 10 K
# influence point — the candidate heap runs under all three — the
# warm-store NN query, DB.Build of Figure 7's default data point (the
# set-up every workload pays before its first query), the 2-D and 4-D
# Hilbert keys it sorts by, the feature stream's page kernel,
# BenchmarkPageScan, in ns per slot, and the NN variant's polygon search,
# BenchmarkSearchPolygon, in ns per search, and one Voronoi cell built from
# the location layer with an empty cell store, BenchmarkVoronoiCellCold, in
# ns and reads per cell (those five at the default benchtime: a key, a slot,
# a search or a cell takes nanoseconds to microseconds). Run once on the base
# commit (`make bench-compare BENCH_OUT=old.txt`), once on the change
# (`... BENCH_OUT=new.txt`), then benchstat compares them — install with
# `go install golang.org/x/perf/cmd/benchstat@latest`. Without benchstat
# the raw `go test -bench` output is still written for manual diffing.
BENCH_OUT ?= bench-new.txt
BENCH_BASE ?= bench-old.txt
bench-compare:
	$(GO) test -run NONE -bench 'BenchmarkFig7$$|BenchmarkFig7Cold/a_features=10000|BenchmarkFig10/a_features=10000|BenchmarkAblationVoronoiCache/one-engine|BenchmarkBuild' -benchtime 10x -benchmem -count 5 . | tee $(BENCH_OUT)
	$(GO) test -run NONE -bench 'BenchmarkEncode(2|4)D|BenchmarkPageScan|BenchmarkSearchPolygon|BenchmarkVoronoiCellCold' -benchmem -count 5 ./internal/hilbert/ ./internal/rtree/ ./internal/core/ | tee -a $(BENCH_OUT)
	@if command -v benchstat >/dev/null 2>&1; then \
		if [ -f $(BENCH_BASE) ]; then \
			benchstat $(BENCH_BASE) $(BENCH_OUT); \
		else \
			echo "bench-compare: no $(BENCH_BASE) baseline; rerun on the base commit with BENCH_OUT=$(BENCH_BASE)"; \
		fi; \
	else \
		echo "bench-compare: benchstat not installed, wrote raw output to $(BENCH_OUT)"; \
	fi

# The paper's evaluation (Section 8: Table 3, Figures 7-14) at paper scale:
# TestExperiments runs every experiment row of the sweep table
# (sweep_test.go) and writes EXPERIMENTS.md's raw tables, stamped with the
# commit, the host and each table's scale and query count, to
# experiments_output.txt. About ten minutes on a 2-vCPU Xeon;
# EXPERIMENTS=fig7,fig8 runs some figures only (into the same file).
EXPERIMENTS ?= all
experiments:
	$(GO) test -v -run '^TestExperiments$$' -timeout 0 . -experiments $(EXPERIMENTS)

# The zero-alloc / allocation-budget regression tests: kwset.Jaccard, the
# buffer-pool hit path and a miss on a full pool must stay allocation-free,
# a warm R-tree search over page views must not allocate per node
# (internal/rtree), a cold range query must not allocate per miss,
# steady-state top-k queries must stay under their documented budgets
# (internal/core), the unsampled event-log record
# path must stay within one allocation per query (internal/obs), the
# query pipeline above the engine — DB.TopK (root) and a Service.Do cache
# hit (internal/serve) — must not allocate more than it did before it was
# one pipeline, and DB.Build (root, TestAllocsBuild) must stay within its
# bytes and allocations per indexed item, whose 2-D and 4-D Hilbert keys
# allocate nothing (internal/hilbert).
alloc-regression:
	$(GO) test -run 'TestAllocs' -v ./internal/kwset/ ./internal/hilbert/ ./internal/storage/ ./internal/rtree/ ./internal/core/ ./internal/obs/ . ./internal/serve/

# Every fuzz target of the root module run past its seed corpus, for
# FUZZTIME each. `go test -fuzz` takes one package and one target per run,
# so the targets are listed package by package (`go test -list`) and run
# one after another. A failing input is written under the package's
# testdata/fuzz/, where it becomes a seed-corpus regression case.
FUZZTIME ?= 10s
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for name in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz-smoke: $$name in $$pkg"; \
			$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Every examples/ main run to the end: each builds a small DB, queries it
# and must exit 0, so an example cannot compile yet fail when run. A few
# seconds in all.
examples-smoke:
	@set -e; for dir in examples/*/; do \
		echo "examples-smoke: $${dir%/}"; \
		$(GO) run ./$${dir%/}; \
	done

# The buffer pool's concurrent readers under the race detector, twenty
# times over: readers that hold page images (directly, or as rtree views)
# while others miss, evict and clear beside them must read their pages'
# bytes, and every read must be counted once.
pool-soak:
	$(GO) test -race -count 20 -run 'Recycling|ViewSurvivesEviction' ./internal/storage ./internal/rtree

# End-to-end daemon smoke test: start stpqd on a small synthetic dataset
# with a 1 ns slow-query threshold (every query collects a span tree),
# wait for /healthz, check that a query naming no algorithm and the same
# query naming "stps" share one result-cache entry, that the cache hit
# carries no span tree (a tree comes only from the execution that returned
# it) and that /debug/slow holds the slow queries' trees, fire a short
# stpqload run, then shut down gracefully.
SMOKE_ADDR ?= 127.0.0.1:18321
serve-smoke:
	$(GO) build -o /tmp/stpqd-smoke ./cmd/stpqd
	$(GO) build -o /tmp/stpqload-smoke ./cmd/stpqload
	/tmp/stpqd-smoke -synthetic -objects 2000 -features 2000 -slow-query 1ns -addr $(SMOKE_ADDR) & \
	pid=$$!; \
	trap 'kill -INT $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://$(SMOKE_ADDR)/healthz >/dev/null 2>&1; then break; fi; \
		sleep 0.2; \
	done; \
	curl -fsS http://$(SMOKE_ADDR)/healthz && \
	curl -fsS http://$(SMOKE_ADDR)/query -d '{"k":4,"radius":0.05,"keywords":{"set1":["kw5"],"set2":["kw6"]}}' >/dev/null && \
	curl -fsS http://$(SMOKE_ADDR)/query -d '{"k":4,"radius":0.05,"keywords":{"set1":["kw5"],"set2":["kw6"]},"algorithm":"stps"}' \
		> /tmp/stpq-smoke-hit.json && \
	grep -q '"cached":true' /tmp/stpq-smoke-hit.json && \
	echo "serve-smoke: an omitted algorithm is stps (one result-cache slot)" && \
	! grep -q '"trace"' /tmp/stpq-smoke-hit.json && \
	echo "serve-smoke: the cache hit carries no span tree" && \
	curl -fsS http://$(SMOKE_ADDR)/debug/slow | grep -q '"trace"' && \
	echo "serve-smoke: -slow-query 1ns fills /debug/slow" && \
	/tmp/stpqload-smoke -addr http://$(SMOKE_ADDR) -c 2 -n 50 -k 5 && \
	curl -fsS http://$(SMOKE_ADDR)/metrics | grep -q stpq_serve_queries_total && \
	kill -INT $$pid && wait $$pid

# Crash-recovery smoke test: start a WAL-backed stpqd, apply durable
# mutation batches over POST /ingest, SIGKILL the daemon (no graceful
# shutdown), restart it on the same log + seed, and verify every
# acknowledged mutation was replayed (stpq_ingest_replayed_total). A
# short mixed read/write stpqload run then exercises the delta overlay
# under load.
INGEST_ADDR ?= 127.0.0.1:18322
INGEST_WAL := /tmp/stpq-ingest-smoke-wal
ingest-smoke:
	$(GO) build -o /tmp/stpqd-smoke ./cmd/stpqd
	$(GO) build -o /tmp/stpqload-smoke ./cmd/stpqload
	rm -rf $(INGEST_WAL)
	/tmp/stpqd-smoke -synthetic -objects 2000 -features 2000 -wal-dir $(INGEST_WAL) -addr $(INGEST_ADDR) & \
	pid=$$!; \
	trap 'kill -9 $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://$(INGEST_ADDR)/healthz >/dev/null 2>&1; then break; fi; \
		sleep 0.2; \
	done; \
	curl -fsS http://$(INGEST_ADDR)/ingest -d '{"objects":[{"id":900001,"x":0.5,"y":0.5}],"features":{"set1":[{"id":900002,"x":0.5,"y":0.5,"score":0.9,"keywords":["kw1"]}]}}' && echo && \
	curl -fsS http://$(INGEST_ADDR)/ingest -d '{"objects":[{"id":900003,"x":0.25,"y":0.75}],"delete_objects":[17]}' && echo && \
	curl -fsS http://$(INGEST_ADDR)/ingest -d '{"delete_features":{"set2":[42]}}' && echo && \
	kill -9 $$pid; wait $$pid 2>/dev/null; \
	/tmp/stpqd-smoke -synthetic -objects 2000 -features 2000 -wal-dir $(INGEST_WAL) -addr $(INGEST_ADDR) & \
	pid=$$!; \
	trap 'kill -INT $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://$(INGEST_ADDR)/healthz >/dev/null 2>&1; then break; fi; \
		sleep 0.2; \
	done; \
	curl -fsS http://$(INGEST_ADDR)/metrics | grep -q 'stpq_ingest_replayed_total 5$$' && \
	echo "ingest-smoke: all 5 acknowledged mutations replayed after SIGKILL" && \
	/tmp/stpqload-smoke -addr http://$(INGEST_ADDR) -c 2 -n 60 -k 5 -write-frac 0.3 && \
	kill -INT $$pid && wait $$pid

# Incremental-compaction smoke test: a WAL-backed stpqd with background
# compaction, a tiny auto-flush threshold and auto-checkpointing takes a
# sustained mixed read/write load; the run must show sealed runs merging
# off the write path (partial merges or completed compactions in /metrics)
# and an automatic checkpoint landing on disk. The daemon is then
# SIGKILLed and restarted from the checkpoint directory: the manifest's
# WAL position replays only the tail, and queries keep answering.
COMPACT_ADDR ?= 127.0.0.1:18323
COMPACT_WAL := /tmp/stpq-compaction-smoke-wal
COMPACT_CKPT := /tmp/stpq-compaction-smoke-ckpt
compaction-smoke:
	$(GO) build -o /tmp/stpqd-smoke ./cmd/stpqd
	$(GO) build -o /tmp/stpqload-smoke ./cmd/stpqload
	rm -rf $(COMPACT_WAL) $(COMPACT_CKPT)
	mkdir -p $(COMPACT_CKPT)
	/tmp/stpqd-smoke -synthetic -objects 2000 -features 2000 -wal-dir $(COMPACT_WAL) \
		-auto-flush-ops 64 -background-compaction -compact-runs 1 \
		-checkpoint-every-ops 300 -checkpoint-dir $(COMPACT_CKPT) -addr $(COMPACT_ADDR) & \
	pid=$$!; \
	trap 'kill -9 $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://$(COMPACT_ADDR)/healthz >/dev/null 2>&1; then break; fi; \
		sleep 0.2; \
	done; \
	/tmp/stpqload-smoke -addr http://$(COMPACT_ADDR) -c 4 -n 600 -k 5 -write-frac 0.5 && \
	for i in $$(seq 1 50); do \
		if [ -f $(COMPACT_CKPT)/stpq.json ]; then break; fi; \
		sleep 0.2; \
	done; \
	test -f $(COMPACT_CKPT)/stpq.json && \
	curl -fsS http://$(COMPACT_ADDR)/metrics | grep -E 'stpq_ingest_(partial_merges|compactions)_total [1-9]' && \
	curl -fsS http://$(COMPACT_ADDR)/info | grep -q '"walAttached":true' && \
	echo "compaction-smoke: runs merged off the write path, auto-checkpoint landed" && \
	kill -9 $$pid; wait $$pid 2>/dev/null; \
	/tmp/stpqd-smoke -open $(COMPACT_CKPT) -addr $(COMPACT_ADDR) & \
	pid=$$!; \
	trap 'kill -INT $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://$(COMPACT_ADDR)/healthz >/dev/null 2>&1; then break; fi; \
		sleep 0.2; \
	done; \
	curl -fsS http://$(COMPACT_ADDR)/query -d '{"k":5,"radius":0.05,"keywords":{"set1":["kw1","kw2"],"set2":["kw3"]}}' | grep -q '"results"' && \
	echo "compaction-smoke: recovered from checkpoint + WAL tail after SIGKILL" && \
	kill -INT $$pid && wait $$pid

# Replicated-cluster smoke test: one WAL-backed leader and two followers
# replaying its log (fetched from the leader's GET /wal/segments), each a
# whole-DB replica serving its ordinary HTTP API, a coordinator forwarding
# /query to one of the three, a single-process stpqd on the same
# dataset and a `-shards 4` stpqd on it too. The coordinator's and the
# sharded daemon's answers must be byte-identical to the single process's
# for a spread of query shapes (both algorithms, range and influence
# variants); after a short stpqload run through the coordinator every
# replica must have served queries; and a write POSTed to the leader must
# reach both followers' own /query answers within 10 s.
CLUSTER_WAL := /tmp/stpq-cluster-smoke-wal
CLUSTER_DATA := -synthetic -objects 2000 -features 2000
define CLUSTER_SMOKE_PY
import json, sys, time, urllib.request
def get(port, path):
    return urllib.request.urlopen("http://127.0.0.1:%d%s" % (port, path)).read().decode()
def query(port, body):
    req = urllib.request.Request("http://127.0.0.1:%d/query" % port, json.dumps(body).encode(), {"Content-Type": "application/json"})
    return json.dumps(json.load(urllib.request.urlopen(req))["results"], sort_keys=True)
leader, followers = 18341, (18342, 18343)
if sys.argv[1] == "identity":
    for q in ({"k": 5, "radius": 0.05, "keywords": {"set1": ["kw1", "kw2"], "set2": ["kw3"]}},
              {"k": 10, "radius": 0.05, "keywords": {"set1": ["kw7"], "set2": ["kw8", "kw9"]}, "algorithm": "stds"},
              {"k": 7, "variant": "influence", "radius": 0.1, "keywords": {"set1": ["kw4"], "set2": ["kw5"]}}):
        want = query(18349, q)
        for port in (18340, 18348):
            got = query(port, q)
            assert got == want, "port %d diverges from single process: got %s, want %s" % (port, got, want)
    print("cluster-smoke: coordinator and -shards 4 results byte-identical to single process")
    sys.exit(0)
for port in (leader,) + followers:
    served = [l for l in get(port, "/metrics").splitlines() if l.startswith("stpq_serve_queries_total ")]
    assert served and float(served[0].split()[1]) > 0, "replica on :%d served no queries: %r" % (port, served)
print("cluster-smoke: every replica served queries through the coordinator")
q = {"k": 5, "radius": 0.005, "lambda": 0.5, "keywords": {"set1": ["kw1"]}}
before = query(leader, q)
req = urllib.request.Request("http://127.0.0.1:%d/ingest" % leader,
    json.dumps({"objects": [{"id": 900001, "x": 0.5, "y": 0.5}],
                "features": {"set1": [{"id": 900002, "x": 0.5, "y": 0.5, "score": 1.0, "keywords": ["kw1"]}]}}).encode(),
    {"Content-Type": "application/json"})
urllib.request.urlopen(req).read()
want = query(leader, q)
assert want != before, "the write did not move the leader's answer: %s" % want
deadline = time.time() + 10
for port in followers:
    while query(port, q) != want:
        assert time.time() < deadline, "follower :%d did not catch up with the leader in 10 s" % port
        time.sleep(0.2)
print("cluster-smoke: both followers answer like the leader after a write")
endef
export CLUSTER_SMOKE_PY
cluster-smoke:
	$(GO) build -o /tmp/stpqd-smoke ./cmd/stpqd
	$(GO) build -o /tmp/stpqload-smoke ./cmd/stpqload
	rm -rf $(CLUSTER_WAL)
	/tmp/stpqd-smoke $(CLUSTER_DATA) -wal-dir $(CLUSTER_WAL) -addr 127.0.0.1:18341 & p0=$$!; \
	/tmp/stpqd-smoke $(CLUSTER_DATA) -follow 127.0.0.1:18341 -addr 127.0.0.1:18342 & p1=$$!; \
	/tmp/stpqd-smoke $(CLUSTER_DATA) -follow 127.0.0.1:18341 -addr 127.0.0.1:18343 & p2=$$!; \
	/tmp/stpqd-smoke -replicas 127.0.0.1:18341,127.0.0.1:18342,127.0.0.1:18343 -addr 127.0.0.1:18340 & pc=$$!; \
	/tmp/stpqd-smoke $(CLUSTER_DATA) -addr 127.0.0.1:18349 & ps=$$!; \
	/tmp/stpqd-smoke $(CLUSTER_DATA) -shards 4 -addr 127.0.0.1:18348 & p4=$$!; \
	trap 'kill -INT $$p0 $$p1 $$p2 $$pc $$ps $$p4 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do \
		ready=1; \
		for port in 18341 18342 18343 18340 18349 18348; do \
			curl -fsS http://127.0.0.1:$$port/readyz >/dev/null 2>&1 || ready=0; \
		done; \
		if [ $$ready = 1 ]; then break; fi; \
		sleep 0.2; \
	done; \
	curl -fsS http://127.0.0.1:18340/readyz >/dev/null && \
	echo "$$CLUSTER_SMOKE_PY" | python3 - identity && \
	/tmp/stpqload-smoke -targets http://127.0.0.1:18340 -c 2 -n 50 -k 5 && \
	curl -fsS http://127.0.0.1:18340/metrics | grep -q stpq_cluster_queries_total && \
	curl -fsS http://127.0.0.1:18348/metrics | grep -q stpq_shard_fanout_total && \
	echo "$$CLUSTER_SMOKE_PY" | python3 - replication && \
	kill -INT $$p0 $$p1 $$p2 $$pc $$ps $$p4 && wait

check: build vet fmt-check test race bench-check
