package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"stpq"
	"stpq/internal/index"
	"stpq/internal/kwset"
	"stpq/internal/serve"
)

// Directories the benchmark writes, relative to the checkout root it runs
// from; both are git-ignored.
const (
	buildDir = ".bench_build" // binaries and the Go build cache
	outDir   = "bench/out"    // span files and write-ahead logs
)

// target is one workload's engine under test, set up and ready.
type target struct {
	// pid is the process hosting the engine: this one, or the child stpqd.
	pid int
	// plan maps each operation of a pass to the query it issues (-1 for a
	// write), so that the checked pass's answers find their oracle answer.
	plan []int
	// prepare, when set, runs before pass n outside the clock.
	prepare func(n int)
	// run performs operations lo to hi-1 of pass n of the pinned operation
	// list. Pass 0 is the untimed warm-up, whose answers are checked.
	run func(n, lo, hi int, r *recorder)
	// finish, when set, runs after the timed passes and returns how many
	// further answers it checked and how many were wrong.
	finish func() (checked, wrong int, err error)
	close  func() error
	// What the traced ingest run reads besides: the DB, its configuration
	// and the data bytes of the batches applied so far.
	db        *stpq.DB
	cfg       stpq.Config
	userBytes int
}

func closeTarget(t *target) { _ = t.close() }

// pass runs the whole operation list once.
func (t *target) pass(n int, r *recorder) { t.run(n, 0, len(t.plan), r) }

// observe records one completed query.
func (r *recorder) observe(op int, start time.Time, rows func() []resultRow, logical int64, err error) {
	r.ops++
	if err != nil {
		r.failed++
		return
	}
	end := time.Now()
	r.readMS = append(r.readMS, ms(end.Sub(start)))
	if r.spans != nil {
		r.spanOf[op] = r.spans.add(r.spanName, r.reqOf(op), 0, start, end)
	}
	r.logical += logical
	if r.answers != nil {
		r.answers[op] = rows()
	}
}

func rowsOf(res []stpq.Result) []resultRow {
	rows := make([]resultRow, len(res))
	for i, r := range res {
		rows[i] = resultRow{r.ID, r.Score}
	}
	return rows
}

// topK issues one query through DB.TopK and records it.
func (r *recorder) topK(db *stpq.DB, op int, q stpq.Query) {
	start := time.Now()
	res, st, err := db.TopK(q)
	r.observe(op, start, func() []resultRow { return rowsOf(res) }, st.LogicalReads, err)
}

func identityPlan(n int) []int {
	plan := make([]int, n)
	for i := range plan {
		plan[i] = i
	}
	return plan
}

// openLibrary builds the DB in this process; one closed-loop client issues
// every query of the world through DB.TopK.
func openLibrary(w workload, wd *world) (*target, error) {
	db, err := wd.build(w.config())
	if err != nil {
		return nil, err
	}
	plan, _, _ := w.plan()
	return &target{
		pid:  os.Getpid(),
		plan: plan,
		run: func(n, lo, hi int, r *recorder) {
			for op := lo; op < hi; op++ {
				r.topK(db, op, wd.pub[wd.at(n, plan[op])])
			}
		},
		close: func() error { return nil },
	}, nil
}

// Serving workload shape: hotQueries queries are asked again and again and
// make up 3 requests in 10; the other 7 are asked once in the whole run, so
// only the hot set ever hits stpqd's result cache.
const (
	hotQueries  = 16
	connections = 2 // closed-loop keep-alive clients, one per CPU
)

// servePlan lays out one pass of n requests and returns it with the number
// of distinct queries it needs.
func servePlan(n int) (plan []int, distinct int) {
	plan = make([]int, n)
	distinct = hotQueries
	hot := 0
	for i := range plan {
		if i%10 == 2 || i%10 == 5 || i%10 == 8 {
			plan[i] = hot % hotQueries
			hot++
		} else {
			plan[i] = distinct
			distinct++
		}
	}
	return plan, distinct
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// buildStpqd compiles cmd/stpqd from the checkout into buildDir.
func buildStpqd() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "stpqd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/stpqd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building stpqd: %w", err)
	}
	return bin, nil
}

// openHTTP starts a child stpqd on the world's data (it regenerates it
// from the same seed) and waits until /readyz answers 200.
func openHTTP(w workload, wd *world, bin string, seed int64) (*target, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-synthetic",
		"-objects", strconv.Itoa(len(wd.objects)), "-features", strconv.Itoa(len(wd.sets[0])),
		"-vocab", strconv.Itoa(vocabSize), "-seed", strconv.FormatInt(seed, 10),
		"-buffer-pages", strconv.Itoa(w.Buffer), "-addr", addr)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stop := func() error {
		_ = cmd.Process.Signal(syscall.SIGINT)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			return <-done
		}
	}
	base := "http://" + addr
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			_ = stop()
			return nil, fmt.Errorf("stpqd not ready on %s after 60s: %s", addr, logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	plan, _, _ := w.plan()
	bodies := make([][]byte, len(wd.pub))
	for i, q := range wd.pub {
		bodies[i], err = json.Marshal(serve.QueryRequest{
			K: q.K, Radius: q.Radius, Lambda: q.Lambda, Keywords: q.Keywords, Algorithm: "stps",
		})
		if err != nil {
			_ = stop()
			return nil, err
		}
	}
	clients := make([]*http.Client, connections)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	}
	return &target{
		pid:  cmd.Process.Pid,
		plan: plan,
		run: func(n, lo, hi int, r *recorder) {
			// Connection c sends requests lo+c, lo+c+connections, …, each
			// after the answer to its previous one.
			parts := make([]recorder, connections)
			var wg sync.WaitGroup
			for c := range parts {
				parts[c] = recorder{answers: r.answers, spans: r.spans, spanName: r.spanName, reqOf: r.reqOf, spanOf: r.spanOf}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for op := lo + c; op < hi; op += connections {
						parts[c].post(clients[c], base+"/query", op, bodies[wd.at(n, plan[op])])
					}
				}()
			}
			wg.Wait()
			for c := range parts {
				r.merge(&parts[c])
			}
		},
		close: func() error {
			for _, c := range clients {
				c.CloseIdleConnections()
			}
			return stop()
		},
	}, nil
}

// post sends one query and records what the client saw.
func (r *recorder) post(c *http.Client, url string, op int, body []byte) {
	start := time.Now()
	var out serve.QueryResponse
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err == nil {
		var data []byte
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
		}
		if err == nil {
			err = json.Unmarshal(data, &out)
		}
	}
	if err == nil {
		tookUS := 1000 * ms(time.Since(start))
		r.httpUS = append(r.httpUS, tookUS-float64(out.ElapsedUS))
		if out.Cached {
			// The cache hands back the stats of the execution it stored;
			// this request read no page.
			r.cached++
			r.hitUS = append(r.hitUS, tookUS)
			out.Stats.LogicalReads = 0
		}
	}
	r.observe(op, start, func() []resultRow {
		rows := make([]resultRow, len(out.Results))
		for i, res := range out.Results {
			rows[i] = resultRow{res.ID, res.Score}
		}
		return rows
	}, out.Stats.LogicalReads, err)
}

// Ingest workload shape: every fifth operation is an Apply of batchSize
// mutations, fsynced on its own; the rest are range queries.
const (
	writeEvery  = 5
	batchSize   = 8
	finalChecks = 100 // queries checked on the final and on the replayed dataset
)

// ingestConfig is the write-path configuration of mixed-ingest: an fsync
// per Apply, and deltas sealed every 64 mutations for a background
// compactor that merges two runs at a time, so that a pass of 30 batches
// sees three or four seals and the timed passes well over six. (At the
// library's 4096, or at 256, no run of this length would see a cycle end.)
func ingestConfig(w workload, walDir string) stpq.Config {
	cfg := w.config()
	cfg.WALDir = walDir
	cfg.WALGroupCommit = 0
	cfg.BackgroundCompaction = true
	cfg.AutoFlushOps = 64
	cfg.CompactRuns = 2
	return cfg
}

// model is the logical dataset mixed-ingest should hold after the batches
// generated so far, and the source of those batches.
type model struct {
	rng     *rand.Rand
	nextID  int64
	objects map[int64]index.Object
	sets    []map[int64]index.Feature
}

func newModel(wd *world, seed int64) *model {
	m := &model{rng: rand.New(rand.NewSource(seed + 12)), objects: make(map[int64]index.Object)}
	for _, o := range wd.ds.Objects {
		m.objects[o.ID] = o
	}
	for _, fs := range wd.ds.FeatureSets {
		set := make(map[int64]index.Feature, len(fs))
		for _, f := range fs {
			set[f.ID] = f
		}
		m.sets = append(m.sets, set)
	}
	m.nextID = int64(len(wd.ds.Objects)) // objects and features per set are equally many
	return m
}

// liveID draws the id of a live item: most ids below the next new one are
// live, so a few draws find one.
func liveID[V any](rng *rand.Rand, items map[int64]V, below int64) int64 {
	for {
		id := rng.Int63n(below)
		if _, ok := items[id]; ok {
			return id
		}
	}
}

func (m *model) point() (x, y float64) { return m.rng.Float64(), m.rng.Float64() }

// batch generates the next Apply batch and applies it to the model: new
// and moved objects, new and rewritten features in either set, and one
// delete of each kind. Keywords stay inside the indexed vocabulary.
func (m *model) batch() []stpq.Mutation {
	muts := make([]stpq.Mutation, 0, batchSize)
	for i := 0; i < batchSize; i++ {
		set := m.rng.Intn(len(m.sets))
		switch i {
		case 0, 1, 2: // upsert an object: two new, one moved
			id := m.nextID
			if i == 2 {
				id = liveID(m.rng, m.objects, m.nextID)
			} else {
				m.nextID++
			}
			o := index.Object{ID: id}
			o.Location.X, o.Location.Y = m.point()
			m.objects[id] = o
			pub := publicObject(o)
			muts = append(muts, stpq.Mutation{Op: stpq.OpUpsertObject, Object: &pub})
		case 3:
			id := liveID(m.rng, m.objects, m.nextID)
			delete(m.objects, id)
			muts = append(muts, stpq.Mutation{Op: stpq.OpDeleteObject, ID: id})
		case 4, 5, 6: // upsert a feature: two new, one rewritten
			id := m.nextID
			if i == 6 {
				id = liveID(m.rng, m.sets[set], m.nextID)
			} else {
				m.nextID++
			}
			f := index.Feature{ID: id, Score: m.rng.Float64(), Keywords: kwset.NewSet(vocabSize)}
			f.Location.X, f.Location.Y = m.point()
			for n := 1 + m.rng.Intn(3); n > 0; n-- {
				f.Keywords.Add(m.rng.Intn(vocabSize))
			}
			m.sets[set][id] = f
			pub := publicFeature(f)
			muts = append(muts, stpq.Mutation{Op: stpq.OpUpsertFeature, Set: setName(set), Feature: &pub})
		default:
			id := liveID(m.rng, m.sets[set], m.nextID)
			delete(m.sets[set], id)
			muts = append(muts, stpq.Mutation{Op: stpq.OpDeleteFeature, Set: setName(set), ID: id})
		}
	}
	return muts
}

// sortedValues returns the map's values in id order, so that the oracle's
// input does not depend on map iteration.
func sortedValues[V any](items map[int64]V) []V {
	ids := make([]int64, 0, len(items))
	for id := range items {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]V, len(ids))
	for i, id := range ids {
		out[i] = items[id]
	}
	return out
}

func (m *model) oracle() *oracle {
	sets := make([][]index.Feature, len(m.sets))
	for i, set := range m.sets {
		sets[i] = sortedValues(set)
	}
	return newOracle(sortedValues(m.objects), sets)
}

// ingestPlan lays out one pass of n operations over the world's queries.
func ingestPlan(n int) (plan []int, reads int) {
	plan = make([]int, n)
	for i := range plan {
		if i%writeEvery == writeEvery-1 {
			plan[i] = -1
		} else {
			plan[i] = reads
			reads++
		}
	}
	return plan, reads
}

// walSeq numbers the write-ahead-log directories of one process.
var walSeq int

// openIngest builds the DB with a fresh write-ahead log. Pass 0 only reads;
// every later pass interleaves the next batches of the model with its own
// reads. finish flushes, checks the answers on the final dataset, then
// rebuilds the DB from the generated base and the log alone and checks
// that replay gives the same answers.
func openIngest(w workload, wd *world, seed int64) (*target, error) {
	walSeq++
	walDir := filepath.Join(outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), walSeq))
	if err := os.RemoveAll(walDir); err != nil {
		return nil, err
	}
	cfg := ingestConfig(w, walDir)
	db, err := wd.build(cfg)
	if err != nil {
		return nil, err
	}
	plan, _, _ := w.plan()
	m := newModel(wd, seed)
	// batches holds the pass's batch for each write of the plan, by
	// operation.
	batches := make([][]stpq.Mutation, len(plan))
	t := &target{pid: os.Getpid(), plan: plan, db: db, cfg: cfg}
	t.prepare = func(int) {
		for op, q := range plan {
			if q < 0 {
				batches[op] = m.batch()
			}
		}
	}
	t.run = func(n, lo, hi int, r *recorder) {
		for op := lo; op < hi; op++ {
			switch q := plan[op]; {
			case q >= 0:
				r.topK(db, op, wd.pub[wd.at(n, q)])
			case n > 0:
				start := time.Now()
				err := db.Apply(batches[op])
				t.userBytes += userBytes(batches[op])
				r.ops++
				if err != nil {
					r.failed++
				} else {
					r.writeMS = append(r.writeMS, ms(time.Since(start)))
				}
			}
		}
	}
	t.finish = func() (int, int, error) {
		if err := db.Flush(); err != nil {
			return 0, 0, err
		}
		n := min(finalChecks, wd.per)
		want := m.oracle().answers(wd.queries[:n])
		checked, wrong := 0, 0
		check := func(db *stpq.DB) {
			r := &recorder{answers: make([][]resultRow, n)}
			for i, q := range wd.pub[:n] {
				r.topK(db, i, q)
			}
			checked += n
			wrong += countWrong(r.answers, identityPlan(n), want)
		}
		check(db)
		if err := db.CloseWAL(); err != nil {
			return checked, wrong, err
		}
		reopened, err := wd.build(cfg)
		if err != nil {
			return checked, wrong, fmt.Errorf("rebuilding from base and log: %w", err)
		}
		check(reopened)
		return checked, wrong, reopened.CloseWAL()
	}
	t.close = func() error {
		err := db.CloseWAL()
		if rmErr := os.RemoveAll(walDir); err == nil {
			err = rmErr
		}
		return err
	}
	return t, nil
}

// open sets up the workload's target once.
func open(w workload, wd *world, seed int64, stpqd string) (*target, error) {
	switch w.Kind {
	case kindHTTP:
		return openHTTP(w, wd, stpqd, seed)
	case kindIngest:
		return openIngest(w, wd, seed)
	default:
		return openLibrary(w, wd)
	}
}
