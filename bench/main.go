// Command bench is the repository's benchmark: five workloads, each its
// own process invocation, that set up, warm up, run a fixed number of
// ops, check their outputs and print every metric by name with its
// unit. README.md defines the workloads and metrics; ../BENCHMARK.json
// is the contract the driver reads.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: batch-submit, batch-drain, serve-mix, lbm-cpu or lbm-gpu")
		seed      = flag.Int64("seed", defaultSeed, "the only source of randomness: job mixes, request schedule, route choice")
		seconds   = flag.Int("seconds", defaultSeconds, "length of the timed window at the seed commit; sets the fixed op count")
		trace     = flag.String("trace", "0", "0: end-to-end metrics, tracing off; 1 or a file name: traced run, per-layer metrics, Chrome trace written there")
		quick     = flag.Bool("quick", false, "test scale: every code path, a fraction of the work")
		selfcheck = flag.Bool("selfcheck", false, "run every workload (or the one -workload names) as two interleaved sets and compare their medians against the bounds")
		runs      = flag.Int("runs", 5, "with -selfcheck: runs per set")
	)
	flag.Parse()
	if n := runtime.NumCPU(); n < 4 {
		runtime.GOMAXPROCS(n)
	} else {
		runtime.GOMAXPROCS(4)
	}
	if *selfcheck {
		os.Exit(selfCheck(*name, *runs, *seed, *seconds))
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q or bad arguments\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: *seconds, quick: *quick}
	res, err := runWorkload(w, p, *trace != "0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if res.tr != nil {
		res.tracePath = *trace
		if *trace == "1" {
			res.tracePath = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
		if err := res.tr.writeChrome(res.tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if err := res.print(bufio.NewWriter(os.Stdout)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
