// Clusterctl is the batch front door to the simulated GPU cluster: it
// submits a batch of LBM, distributed-CG, and heat-stencil jobs to the
// internal/batch scheduler — a deterministic synthetic mix, or a
// recorded workload replayed from a Standard-Workload-Format trace —
// drains the queue on the virtual clock, and prints the operator
// report (makespan, per-node utilization bars, queue waits, placement
// and preemption stats) under any of the four queue policies.
//
// Usage:
//
//	clusterctl -nodes 32 -jobs 200 -policy both -seed 42
//	clusterctl -policy all -preempt            # compare all four policies
//	clusterctl -trace examples/traces/sample.swf -policy fairshare
//	clusterctl -policy all -quantum 300s       # time-sliced gang scheduling
//	clusterctl -preempt -suspend-to-host       # in-RAM suspension tier
//	clusterctl -preempt -store-duplex half     # drains and restores share the wire
//	clusterctl -preempt -store-bandwidth 30    # slower checkpoint store (MB/s)
//	clusterctl -mtbf 2h                        # seeded failure storm (node crashes, trunk outages)
//	clusterctl -faults storm.txt -ckpt-interval 5m  # replay a fault trace, bank proactively
//	clusterctl -execute -jobs 8                # actually run the workloads
//	clusterctl -trace-out run.json             # Perfetto trace of the first run
//	clusterctl -explain 7                      # why job 7 waited, pass by pass
//	clusterctl -metrics-out -                  # Prometheus metrics to stdout
//
// Subcommands turn the same scheduler into a live daemon and talk to
// it over HTTP (see serve.go):
//
//	clusterctl serve -nodes 32 -compress 60    # real-time submit/cancel/query daemon
//	clusterctl submit -gang 4 -est 30m         # POST a job to it
//	clusterctl queue                           # live queue snapshot
//	clusterctl info 7                          # one job, with its blocker breakdown
//	clusterctl cancel 7                        # withdraw it, wherever it is
//	clusterctl slam -jobs 200 -compress 5000   # SWF load generator, latency percentiles
//
// The daemon answers info for a finished job for as long as its ledger
// keeps the record (the most recent batch.LedgerCapacity finishers);
// after that info and cancel print the daemon's own words — the job
// finished and its record has aged out, as distinct from no such job —
// and exit 1, as for any API error.
//
// With -quantum the comparison table gains a run-to-completion EASY
// baseline row and a short-job wait column (jobs with estimates at or
// below the mix median), the population time-slicing exists to help.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"gpucluster/internal/batch"
	"gpucluster/internal/netsim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flags parse from
// args, reports print to stdout, errors print to stderr, and the return
// value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	// Subcommand dispatch: "clusterctl serve" and its client verbs live
	// in serve.go; a bare flag invocation stays the classic one-shot
	// virtual-time study.
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, ok := subcommands[args[0]]
		if !ok {
			fmt.Fprintf(stderr, "clusterctl: unknown command %q (want serve, submit, cancel, queue, info, or slam — or flags only)\n", args[0])
			return 2
		}
		return cmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("clusterctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := addSchedFlags(fs)
	jobs := fs.Int("jobs", 200, "number of jobs in the synthetic mixed batch")
	policy := fs.String("policy", "both", "queue policy: fifo, easy, conservative, fairshare, both (fifo+easy), or all")
	seed := fs.Int64("seed", 42, "workload generator seed")
	tracePath := fs.String("trace", "", "replay an SWF-style workload trace instead of the synthetic mix")
	faultsPath := fs.String("faults", "", "inject failures from this fault trace file (crash/flap/trunk lines, seconds)")
	mtbf := fs.Duration("mtbf", 0, "generate a seeded failure storm with this per-machine MTBF (exclusive with -faults)")
	ckptInterval := fs.Duration("ckpt-interval", 0, "proactive checkpoint interval under failures (requires -faults or -mtbf)")
	execute := fs.Bool("execute", false, "actually run each job's workload on the functional simulators (use few jobs)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON (ui.perfetto.dev) of the first run to this file")
	explainID := fs.Int("explain", 0, "print the per-pass blocker breakdown for this job ID after the first run (0 disables)")
	metricsOut := fs.String("metrics-out", "", "write Prometheus text-format metrics of the first run to this file (- for stdout)")
	verbose := fs.Bool("v", false, "print the per-job table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "clusterctl: "+format+"\n", a...)
		return 1
	}

	newConfig, err := sf.builder()
	if err != nil {
		return fail("%v", err)
	}
	if *jobs < 0 {
		return fail("-jobs %d: job count must be non-negative", *jobs)
	}
	if *explainID < 0 {
		return fail("-explain %d: job IDs are positive", *explainID)
	}
	faults, err := resolveFaultFlags(*faultsPath, *mtbf, *ckptInterval, sf.nodes, *seed)
	if err != nil {
		return fail("%v", err)
	}

	var policies []batch.Policy
	switch *policy {
	case "both":
		policies = []batch.Policy{batch.FIFO, batch.Backfill}
	case "all":
		policies = batch.Policies()
	default:
		p, err := batch.ParsePolicy(*policy)
		if err != nil {
			return fail("%v", err)
		}
		policies = []batch.Policy{p}
	}

	// One job-spec slice serves every scheduler run: Submit resolves
	// defaults into scheduler-owned fields, so the specs stay pristine
	// across replays.
	var mix []*batch.Job
	var actual func(*batch.Job, time.Duration) time.Duration
	if *tracePath != "" {
		recs, err := batch.LoadTrace(*tracePath)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return fail("-trace %s: no such file (give the path to an SWF workload trace, e.g. examples/traces/sample.swf)", *tracePath)
			}
			return fail("%v", err)
		}
		mix, actual = batch.TraceJobs(recs, sf.nodes)
		fmt.Fprintf(stdout, "clusterctl: replaying %d trace jobs from %s on %d nodes\n\n", len(mix), *tracePath, sf.nodes)
	} else {
		mix = batch.SyntheticMix(*seed, *jobs, sf.nodes)
		fmt.Fprintf(stdout, "clusterctl: %d jobs on %d nodes (seed %d)\n\n", *jobs, sf.nodes, *seed)
	}
	if *execute {
		shrink(mix, sf.nodes)
	}
	// Observability attaches to the first run of the grid (with one
	// policy — the recommended way to use these flags — that IS the
	// run): the recorder feeds -trace-out and -explain, the registry
	// feeds -metrics-out.
	var rec *batch.MemRecorder
	if *traceOut != "" || *explainID > 0 {
		rec = &batch.MemRecorder{}
	}
	var reg *batch.Registry
	if *metricsOut != "" {
		reg = batch.NewRegistry()
	}
	// One config builder serves every run, so a future knob cannot be
	// wired into the policy grid but silently left off the baseline.
	makeConfig := func(pol batch.Policy, quantum time.Duration) batch.Config {
		cfg := newConfig(pol)
		cfg.Quantum = quantum
		cfg.Actual = actual
		cfg.Faults = faults
		cfg.CheckpointInterval = *ckptInterval
		return cfg
	}
	runMix := func(cfg batch.Config) (batch.Report, error) {
		s := batch.New(cfg)
		for _, j := range mix {
			if err := s.Submit(j); err != nil {
				return batch.Report{}, err
			}
		}
		return s.Run(), nil
	}
	var results []batch.Report // one per policy, in -policy order
	for _, pol := range policies {
		cfg := makeConfig(pol, sf.quantum)
		if *execute {
			cfg.Execute = batch.SimExecutor{TracerParticles: 1000}
		}
		if len(results) == 0 {
			// Assign through the nil checks: a typed-nil
			// *MemRecorder stored in the interface field would
			// defeat the scheduler's rec != nil fast path.
			if rec != nil {
				cfg.Recorder = rec
			}
			cfg.Metrics = reg
		}
		rep, err := runMix(cfg)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprint(stdout, rep)
		if *verbose {
			printJobs(stdout, rep)
		}
		fmt.Fprintln(stdout)
		results = append(results, rep)
	}
	firstRep := results[0] // the instrumented run's report, and the comparison's baseline

	if len(policies) > 1 || sf.quantum > 0 {
		row := func(label string, f, r batch.Report) {
			fmt.Fprintf(stdout, "  %-13s makespan %8v (%s), utilization %5.1f%%, avg wait %8v, short wait %8v, ckpt wait %-11s %d backfilled, %d preempted, %d sliced\n",
				label, batch.RoundDuration(r.Makespan), gain(f.Makespan, r.Makespan),
				100*r.Utilization, batch.RoundDuration(r.AvgWait),
				batch.RoundDuration(r.ShortWait), ckptWaitCol(r)+",",
				r.Backfilled, r.Preempted, r.Sliced)
		}
		fmt.Fprintf(stdout, "policy comparison (baseline %s; short = est <= %v):\n",
			firstRep.Policy, batch.RoundDuration(firstRep.ShortCut))
		for _, r := range results {
			row(r.Policy.String(), firstRep, r)
		}
		if sf.quantum > 0 {
			// The run-to-completion EASY baseline.
			base, err := runMix(makeConfig(batch.Backfill, 0))
			if err != nil {
				return fail("%v", err)
			}
			row("easy/rtc", firstRep, base)
			for _, r := range results {
				if r.Policy != batch.Backfill {
					continue
				}
				fmt.Fprintf(stdout, "  timeslice quantum %v vs run-to-completion easy: short-job avg wait %v -> %v (%s)\n",
					sf.quantum, batch.RoundDuration(base.ShortWait),
					batch.RoundDuration(r.ShortWait),
					gain(base.ShortWait, r.ShortWait))
			}
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail("-trace-out: %v", err)
		}
		werr := firstRep.WriteChromeTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fail("-trace-out %s: %v", *traceOut, werr)
		}
		fmt.Fprintf(stdout, "clusterctl: wrote Chrome trace %s (%d events; open in ui.perfetto.dev)\n",
			*traceOut, len(firstRep.Events))
	}
	if *explainID > 0 {
		known := false
		for _, j := range firstRep.Jobs {
			if j.ID == *explainID {
				known = true
				break
			}
		}
		if !known {
			return fail("-explain %d: no such job (the run had IDs 1..%d)", *explainID, len(firstRep.Jobs))
		}
		e := firstRep.Explain(*explainID)
		fmt.Fprintln(stdout, e)
		if dom := e.Dominant(); dom != batch.ReasonNone {
			fmt.Fprintf(stdout, "  dominant blocker: %s\n", dom)
		}
	}
	if *metricsOut != "" {
		w := stdout
		var f *os.File
		if *metricsOut != "-" {
			f, err = os.Create(*metricsOut)
			if err != nil {
				return fail("-metrics-out: %v", err)
			}
			w = f
		}
		werr := reg.WritePrometheus(w)
		if f != nil {
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
		}
		if werr != nil {
			return fail("-metrics-out %s: %v", *metricsOut, werr)
		}
		if f != nil {
			fmt.Fprintf(stdout, "clusterctl: wrote Prometheus metrics %s\n", *metricsOut)
		}
	}

	for _, r := range results {
		if r.Failed > 0 {
			return 1
		}
	}
	return 0
}

// gain renders the relative makespan improvement from base to improved,
// or "n/a" when the base is empty (e.g. -jobs 0).
func gain(base, improved time.Duration) string {
	if base <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(float64(improved)/float64(base)-1))
}

// ckptWaitCol renders a run's store-link queue waits as drain+restore,
// or "n/a" for a run with no checkpoint traffic at all (no preemptions,
// slices, or demotions means zero restores — a blank column would read
// as a perfectly contention-free protocol rather than an unused one).
func ckptWaitCol(r batch.Report) string {
	if r.PreemptEvents == 0 && r.SliceEvents == 0 && r.Demotions == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%v+%v", batch.RoundDuration(r.DrainWait), batch.RoundDuration(r.RestoreWait))
}

// resolveFaultFlags cross-checks the failure-injection knobs and builds
// the plan: -faults replays a trace file, -mtbf generates a seeded
// storm over a 24h horizon (the two are exclusive — a study is either
// pinned to a recorded storm or to the generator), and -ckpt-interval
// is meaningless without failures to survive (the scheduler would
// ignore it anyway: a fault-free run is bit-identical with the knob on
// or off).
func resolveFaultFlags(faultsPath string, mtbf, ckptInterval time.Duration, nodes int, seed int64) (*batch.FaultPlan, error) {
	if faultsPath != "" && mtbf != 0 {
		return nil, fmt.Errorf("-faults and -mtbf are mutually exclusive: replay a recorded storm or generate one, not both")
	}
	if mtbf < 0 {
		return nil, fmt.Errorf("-mtbf %v: mean time between failures must be positive", mtbf)
	}
	if ckptInterval < 0 {
		return nil, fmt.Errorf("-ckpt-interval %v: the interval must be positive", ckptInterval)
	}
	if ckptInterval > 0 && faultsPath == "" && mtbf == 0 {
		return nil, fmt.Errorf("-ckpt-interval needs failures to survive: add -faults or -mtbf")
	}
	switch {
	case faultsPath != "":
		plan, err := batch.LoadFaultPlan(faultsPath)
		if err != nil {
			return nil, err
		}
		return plan, nil
	case mtbf > 0:
		return batch.GenFaultPlan(seed, nodes, 24*time.Hour, mtbf), nil
	}
	return nil, nil
}

// schedFlags are the scheduler knobs the one-shot study and serve
// share: registered once on either FlagSet, validated and assembled
// into a batch.Config in one place, so the two front doors cannot
// drift apart on a name, a default or an error sentence.
type schedFlags struct {
	nodes                  int
	storeDuplex            string
	trunk, storeBW         float64
	preempt, suspendToHost bool
	quantum                time.Duration
}

func addSchedFlags(fs *flag.FlagSet) *schedFlags {
	f := &schedFlags{}
	fs.IntVar(&f.nodes, "nodes", 32, "cluster size (the paper's machine had 32 compute nodes)")
	fs.Float64Var(&f.trunk, "trunk-slowdown", 1.1, "runtime multiplier for gangs spanning the stacking trunk")
	fs.BoolVar(&f.preempt, "preempt", false, "enable priority preemption with checkpoint/restart")
	fs.DurationVar(&f.quantum, "quantum", 0, "time-slice quantum for gang scheduling (0 disables; e.g. 300s)")
	fs.BoolVar(&f.suspendToHost, "suspend-to-host", false, "suspend checkpoint images into node RAM when they fit (requires -preempt or -quantum)")
	fs.StringVar(&f.storeDuplex, "store-duplex", "full", "checkpoint-store link mode: full (independent read/write timelines) or half (one shared)")
	fs.Float64Var(&f.storeBW, "store-bandwidth", 0, "checkpoint-store link bandwidth in MB/s (0 uses the paper's Gigabit model)")
	return f
}

// builder validates the parsed flags and returns the function that
// assembles a batch.Config from them under one policy. Every call
// builds a fresh Cluster, which carries a run's state, so each run of a
// comparison grid gets its own.
func (f *schedFlags) builder() (func(batch.Policy) batch.Config, error) {
	if f.nodes <= 0 {
		return nil, fmt.Errorf("-nodes %d: cluster size must be positive", f.nodes)
	}
	duplex, err := validateCheckpointFlags(f.suspendToHost, f.preempt, f.quantum, f.storeDuplex, f.storeBW)
	if err != nil {
		return nil, err
	}
	var ckptCost, restCost func(*batch.Job) time.Duration
	if f.storeBW > 0 {
		ckptCost, restCost = batch.ScaledStoreCosts(f.storeBW)
	}
	return func(pol batch.Policy) batch.Config {
		return batch.Config{
			Cluster:        batch.NewCluster(f.nodes, netsim.GigabitSwitch(f.nodes)),
			Policy:         pol,
			TrunkSlowdown:  f.trunk,
			Preempt:        f.preempt,
			Quantum:        f.quantum,
			SuspendToHost:  f.suspendToHost,
			StoreDuplex:    duplex,
			CheckpointCost: ckptCost,
			RestoreCost:    restCost,
		}
	}, nil
}

// validateCheckpointFlags cross-checks the checkpoint-model knobs:
// -suspend-to-host is meaningless without a suspension mechanism
// (-preempt or -quantum), the duplex mode must parse, and a negative
// store bandwidth is rejected (0 means "use the paper's Gigabit
// model").
func validateCheckpointFlags(suspendToHost, preempt bool, quantum time.Duration, duplex string, storeBW float64) (batch.Duplex, error) {
	d, err := batch.ParseDuplex(duplex)
	if err != nil {
		return 0, fmt.Errorf("-store-duplex %q: %v", duplex, err)
	}
	if suspendToHost && !preempt && quantum <= 0 {
		return 0, fmt.Errorf("-suspend-to-host needs a suspension mechanism: enable -preempt and/or -quantum")
	}
	if storeBW < 0 {
		return 0, fmt.Errorf("-store-bandwidth %g: bandwidth must be non-negative MB/s (0 selects the paper's Gigabit model)", storeBW)
	}
	return d, nil
}

// shrink scales a batch down to sizes the functional simulators can
// actually run in seconds.
func shrink(jobs []*batch.Job, clusterNodes int) {
	maxGang := 6
	if clusterNodes < maxGang {
		maxGang = clusterNodes
	}
	for _, j := range jobs {
		if j.Nodes > maxGang {
			j.Nodes = maxGang
		}
		switch j.Kind {
		case batch.KindLBM:
			j.Problem = [3]int{8, 8, 8}
			j.Steps = 4
		case batch.KindCG:
			j.Problem = [3]int{12, 12, 1}
			j.Steps = 1000
		case batch.KindPDE:
			j.Problem = [3]int{12, 12, 3}
			j.Steps = 6
		}
		j.Est = 0 // re-estimate for the shrunk problem
	}
}

func printJobs(w io.Writer, rep batch.Report) {
	fmt.Fprintf(w, "  %-4s %-10s %-6s %-5s %-6s %-5s %-9s %-9s %-9s %s\n",
		"id", "name", "user", "kind", "nodes", "prio", "wait", "runtime", "state", "detail")
	for _, j := range rep.Jobs {
		mark := ""
		if j.Backfilled() {
			mark = " *bf"
		}
		if j.Preemptions() > 0 {
			mark += fmt.Sprintf(" *pre%d", j.Preemptions())
		}
		if j.TimeSlices() > 0 {
			mark += fmt.Sprintf(" *ts%d", j.TimeSlices())
		}
		if !j.Alloc.Contiguous() {
			mark += " *split"
		}
		fmt.Fprintf(w, "  %-4d %-10s %-6s %-5s %-6d %-5d %-9v %-9v %-9s %s%s\n",
			j.ID, j.Name, j.User, j.Kind, j.Nodes, j.Priority,
			batch.RoundDuration(j.Wait()), batch.RoundDuration(j.Runtime()),
			j.State, j.Detail, mark)
	}
}
