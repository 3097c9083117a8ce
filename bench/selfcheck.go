package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSelf runs this binary once and parses its last line.
func runSelf(workload string, seed int64, seconds int, trace string) (resultLine, error) {
	var line resultLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return line, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	err = json.Unmarshal(lines[len(lines)-1], &line)
	return line, err
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spreadOf is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(xs, n=4): the driver's measure of steadiness.
func spreadOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // exclusive method
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / medianOf(s)
}

// selfCheck runs every workload (or the only one named) as two
// interleaved sets of runs on this binary, run k of either set with seed+k, and prints per end-to-end
// metric both medians, their relative difference and the bound. It
// also runs each workload traced twice on one seed and compares the
// exact per-layer metrics. The exit code is non-zero if a difference
// exceeds half its bound, an exact metric differs, or an op failed.
func selfCheck(only string, runs int, seed int64, seconds int) int {
	if runs < 2 {
		fmt.Fprintln(os.Stderr, "bench: -selfcheck needs -runs of at least 2")
		return 2
	}
	bad := 0
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
		}
		for k := 0; k < runs; k++ {
			for s := range sets {
				line, err := runSelf(w.name, seed+int64(k), seconds, "0")
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if line.Failed > 0 || !line.Correct {
					fmt.Printf("%s: set %d run %d: %d of %d ops failed\n", w.name, s, k, line.Failed, line.Attempted)
					bad++
				}
				fmt.Printf("%s set %c seed %d:", w.name, 'A'+s, seed+int64(k))
				for _, d := range endToEnd {
					v := line.Metrics[d.name].Value
					sets[s][d.name] = append(sets[s][d.name], v)
					fmt.Printf(" %s %.6g", d.name, v)
				}
				fmt.Println()
			}
		}
		fmt.Printf("%s: two interleaved sets of %d runs, seeds %d-%d\n", w.name, runs, seed, seed+int64(runs)-1)
		fmt.Printf("  %-14s %14s %14s %9s %7s %9s %9s\n", "metric", "median A", "median B", "diff", "bound", "spread A", "spread B")
		for _, d := range endToEnd {
			a, b := medianOf(sets[0][d.name]), medianOf(sets[1][d.name])
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > d.bound/2 {
				verdict = "  OVER HALF THE BOUND"
				bad++
			}
			fmt.Printf("  %-14s %14.6g %14.6g %8.2f%% %6.0f%% %8.2f%% %8.2f%%%s\n", d.name, a, b,
				100*diff, 100*d.bound, 100*spreadOf(sets[0][d.name]), 100*spreadOf(sets[1][d.name]), verdict)
		}

		var traced [2]resultLine
		for i := range traced {
			var err error
			if traced[i], err = runSelf(w.name, seed, seconds, "1"); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		same := true
		for _, d := range perLayer {
			if a, b := traced[0].Metrics[d.name].Value, traced[1].Metrics[d.name].Value; d.exact && a != b {
				fmt.Printf("  exact metric %s differs between two traced runs of seed %d: %v, %v\n", d.name, seed, a, b)
				same = false
				bad++
			}
		}
		if same {
			fmt.Printf("  exact per-layer metrics identical over two traced runs; trace overhead ratio %.3f, %.3f\n",
				traced[0].Metrics["harness.trace_overhead_ratio"].Value, traced[1].Metrics["harness.trace_overhead_ratio"].Value)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d findings\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every difference at or under half its bound")
	return 0
}
