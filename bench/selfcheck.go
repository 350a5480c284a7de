package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// quartiles returns the first quartile, the median and the third quartile
// as Python's statistics.quantiles(values, n=4) gives them (the exclusive
// method), which is what the benchmark's acceptance is stated in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	at := func(p float64) float64 {
		// The exclusive method places quantile p at rank p·(n+1), 1-based.
		n := float64(len(values))
		rank := min(max(p*(n+1), 1), n)
		return percentile(values, 100*(rank-1)/(n-1))
	}
	return at(0.25), at(0.5), at(0.75)
}

// selfCheck runs two sets of runs (seeds 1…runs) of the same code on each
// selected workload and prints, per metric, each set's median and quartile
// spread, the gap between the medians in the metric's worse direction, and
// the bound. It fails when a spread (set-up time apart) or a gap exceeds
// its bound: the rule a later change's regression check rests on. A spread
// above a third of the bound is marked as unsteady and does not fail.
func selfCheck(name string, runs int, seconds float64) int {
	if runs < 2 {
		fatal(fmt.Errorf("--selfcheck needs at least 2 runs per set"))
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	exit := 0
	for _, w := range workloads {
		if name != "all" && name != w.Name {
			continue
		}
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for seed := 1; seed <= runs; seed++ {
				out, err := exec.Command(self, "--workload", w.Name, "--seed", strconv.Itoa(seed),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64)).Output()
				if err != nil {
					fatal(fmt.Errorf("%s seed %d: %w", w.Name, seed, err))
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					fatal(fmt.Errorf("%s seed %d: %w", w.Name, seed, err))
				}
				for k, v := range res.Metrics {
					sets[set][k] = append(sets[set][k], v.Value)
				}
			}
		}
		fmt.Printf("== %s: two sets of %d runs\n", w.Name, runs)
		fmt.Printf("%-26s %12s %8s %12s %8s %8s %6s\n", "metric", "median 1", "spread", "median 2", "spread", "gap", "bound")
		for _, m := range endToEnd {
			var med, spread [2]float64
			for set := range sets {
				q1, q2, q3 := quartiles(sets[set][m.Name])
				med[set], spread[set] = q2, (q3-q1)/q2
			}
			gap := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				gap = -gap
			}
			verdict := ""
			if worst := max(spread[0], spread[1]); gap > m.Bound || (m.Name != "setup_s" && worst > m.Bound) {
				verdict = "  EXCEEDS"
				exit = 1
			} else if m.Name != "setup_s" && worst > m.Bound/3 {
				verdict = "  unsteady"
			}
			fmt.Printf("%-26s %12.4f %8.4f %12.4f %8.4f %+8.4f %6.2f%s\n",
				m.Name, med[0], spread[0], med[1], spread[1], gap, m.Bound, verdict)
		}
	}
	return exit
}
