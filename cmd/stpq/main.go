// Command stpq answers top-k spatio-textual preference queries over CSV
// datasets (as produced by stpqgen) from the command line.
//
// Usage:
//
//	stpq -objects data/objects.csv \
//	     -features data/features_1.csv -kw "italian;pizza" \
//	     -features data/features_2.csv -kw "espresso;muffins" \
//	     -k 10 -r 0.01 -lambda 0.5 -variant range -alg stps
//
// Each -features flag adds one feature set; the i-th -kw flag supplies the
// query keywords for the i-th feature set (semicolon separated).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"stpq"
)

// stringList collects repeated flag values.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

// Set implements flag.Value.
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("stpq: ")
	var (
		objectsPath = flag.String("objects", "", "objects CSV (id,x,y)")
		featFiles   stringList
		kwArgs      stringList
		k           = flag.Int("k", 10, "number of results")
		r           = flag.Float64("r", 0.01, "query radius (normalized)")
		lambda      = flag.Float64("lambda", 0.5, "smoothing parameter λ")
		variant     = flag.String("variant", "range", "score variant: range | influence | nn")
		alg         = flag.String("alg", "stps", "algorithm: stps | stds")
		indexKind   = flag.String("index", "srt", "feature index: srt | ir2")
		sim         = flag.String("sim", "jaccard", "textual similarity: jaccard | dice | cosine | overlap")
		saveDir     = flag.String("save", "", "after building, save the indexes to this directory")
		openDir     = flag.String("open", "", "open a saved database instead of loading CSVs")
		trace       = flag.Bool("trace", false, "collect and print the query's span tree (phase timings and page reads)")
		explain     = flag.Bool("explain", false, "print the query plan (algorithm, shape, shard bounds) before executing")
	)
	flag.Var(&featFiles, "features", "feature set CSV (repeatable)")
	flag.Var(&kwArgs, "kw", "query keywords for the matching -features flag, ';' separated (repeatable)")
	flag.Parse()

	var db *stpq.DB
	keywords := make(map[string][]string)
	if *openDir != "" {
		var err error
		db, err = stpq.Open(*openDir)
		if err != nil {
			log.Fatal(err)
		}
		for i, name := range db.FeatureSetNames() {
			if i < len(kwArgs) {
				keywords[name] = strings.Split(kwArgs[i], ";")
			}
		}
	} else {
		if *objectsPath == "" || len(featFiles) == 0 {
			flag.Usage()
			os.Exit(2)
		}
		cfg := stpq.Config{}
		if *indexKind == "ir2" {
			cfg.IndexKind = stpq.IR2
		}
		db = stpq.New(cfg)
		objs, err := loadObjects(*objectsPath)
		if err != nil {
			log.Fatal(err)
		}
		db.AddObjects(objs)
		for i, path := range featFiles {
			feats, err := loadFeatures(path)
			if err != nil {
				log.Fatal(err)
			}
			name := fmt.Sprintf("set%d", i+1)
			db.AddFeatureSet(name, feats)
			if i < len(kwArgs) {
				keywords[name] = strings.Split(kwArgs[i], ";")
			}
		}
		if err := db.Build(); err != nil {
			log.Fatal(err)
		}
		if *saveDir != "" {
			if err := db.Save(*saveDir); err != nil {
				log.Fatal(err)
			}
			fmt.Println("saved database to", *saveDir)
		}
	}

	q := stpq.Query{K: *k, Radius: *r, Lambda: *lambda, Keywords: keywords}
	switch *variant {
	case "range":
	case "influence":
		q.Variant = stpq.Influence
	case "nn":
		q.Variant = stpq.NearestNeighbor
	default:
		log.Fatalf("unknown -variant %q", *variant)
	}
	switch *alg {
	case "stps":
	case "stds":
		q.Algorithm = stpq.STDS
	default:
		log.Fatalf("unknown -alg %q", *alg)
	}
	switch *sim {
	case "jaccard":
	case "dice":
		q.Similarity = stpq.DiceSim
	case "cosine":
		q.Similarity = stpq.CosineSim
	case "overlap":
		q.Similarity = stpq.OverlapSim
	default:
		log.Fatalf("unknown -sim %q", *sim)
	}

	q.Trace = *trace
	if *explain {
		ex, err := db.Explain(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(ex.String())
		fmt.Println()
	}
	res, stats, err := db.TopK(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-%d (%s, %s):\n", *k, *alg, *variant)
	for i, p := range res {
		fmt.Printf("%3d. object %-8d score %.6f  (%.4f, %.4f)\n", i+1, p.ID, p.Score, p.X, p.Y)
	}
	fmt.Printf("\ncost: %v CPU + %v modeled I/O (%d logical / %d physical page reads)\n",
		stats.CPUTime, stats.IOTime, stats.LogicalReads, stats.PhysicalReads)
	if *trace {
		fmt.Printf("\ntrace:\n%s", stats.Trace)
	}
}

// loadObjects parses an objects CSV.
func loadObjects(path string) ([]stpq.Object, error) {
	rows, err := readCSV(path, 3)
	if err != nil {
		return nil, err
	}
	out := make([]stpq.Object, 0, len(rows))
	for _, row := range rows {
		id, err1 := strconv.ParseInt(row[0], 10, 64)
		x, err2 := strconv.ParseFloat(row[1], 64)
		y, err3 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%s: bad row %v", path, row)
		}
		out = append(out, stpq.Object{ID: id, X: x, Y: y})
	}
	return out, nil
}

// loadFeatures parses a features CSV.
func loadFeatures(path string) ([]stpq.Feature, error) {
	rows, err := readCSV(path, 5)
	if err != nil {
		return nil, err
	}
	out := make([]stpq.Feature, 0, len(rows))
	for _, row := range rows {
		id, err1 := strconv.ParseInt(row[0], 10, 64)
		x, err2 := strconv.ParseFloat(row[1], 64)
		y, err3 := strconv.ParseFloat(row[2], 64)
		s, err4 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("%s: bad row %v", path, row)
		}
		out = append(out, stpq.Feature{
			ID: id, X: x, Y: y, Score: s,
			Keywords: strings.Split(row[4], ";"),
		})
	}
	return out, nil
}

// readCSV reads a header-prefixed CSV with a fixed column count. The
// keyword column may itself contain semicolons, so a plain split suffices
// (no quoting in our format).
func readCSV(path string, cols int) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows [][]string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			continue // header
		}
		parts := strings.SplitN(line, ",", cols)
		if len(parts) != cols {
			return nil, fmt.Errorf("%s: expected %d columns: %q", path, cols, line)
		}
		rows = append(rows, parts)
	}
	return rows, sc.Err()
}
