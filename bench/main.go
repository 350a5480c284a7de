// Command bench is the repository's benchmark: seven pinned workloads, the
// end-to-end metrics a caller sees on each, and — in a traced run — a
// ledger of what every layer costs. BENCHMARK.json at the repository root
// names the workloads and metrics and carries the regression bounds;
// README.md in this directory defines them.
//
// Run it from the repository root:
//
//	sh bench/run.sh                          # every workload, end to end
//	sh bench/run.sh --workload nn --seed 3   # one workload, another seed
//	sh bench/run.sh --workload nn --trace 1  # its layer ledger and span file
//	sh bench/run.sh --selfcheck 5            # two sets of five runs compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
)

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "data seed; queries use seed+6")
		seconds   = flag.Float64("seconds", 10, "how long the timed passes measure")
		trace     = flag.Int("trace", 0, "1 replays the workload through every layer and prints the per-layer metrics")
		selfcheck = flag.Int("selfcheck", 0, "run two sets of this many runs per workload and compare their medians with the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if err := loadManifest(); err != nil {
		fatal(err)
	}
	if *selfcheck > 0 {
		os.Exit(selfCheck(*name, *selfcheck, *seconds))
	}
	if *name == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	opt := options{seed: *seed, seconds: *seconds, scale: 1}
	var (
		res *result
		st  stamp
		err error
	)
	if *trace != 0 {
		res, st, err = traceWorkload(w, opt)
	} else {
		res, st, err = runWorkload(w, opt)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.Name, err))
	}
	printRun(res, st, *trace != 0)
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printRun prints the stamp, every metric by name and unit, and the result
// object as the last line.
func printRun(res *result, st stamp, traced bool) {
	env, _ := json.Marshal(st)
	fmt.Printf("env %s\n", env)
	names := endToEnd
	if traced {
		names = perLayer
	}
	for _, m := range names {
		fmt.Printf("%-34s %14.4f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	frac := func(n int) float64 { return float64(n) / float64(max(res.Attempted, 1)) }
	fmt.Printf("%-34s %14.4f ratio (%d of %d operations)\n", "failed_frac", frac(res.Failed), res.Failed, res.Attempted)
	line, _ := json.Marshal(res)
	fmt.Printf("%s\n", line)
}

// runAll runs every workload in a process of its own, so that each one's
// peak memory is its own, and returns the worst exit code.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	worst := 0
	for _, w := range workloads {
		fmt.Printf("== %s: %s\n", w.Name, w.Why)
		cmd := exec.Command(self, append(args, "--workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			worst = max(worst, 1)
		}
	}
	return worst
}
