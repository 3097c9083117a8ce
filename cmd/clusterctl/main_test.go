package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpucluster/internal/batch"
	"gpucluster/internal/batch/server"
	"gpucluster/internal/netsim"
)

func TestValidateCheckpointFlags(t *testing.T) {
	cases := []struct {
		name    string
		suspend bool
		preempt bool
		quantum time.Duration
		duplex  string
		storeBW float64
		wantErr bool
		want    batch.Duplex
	}{
		{name: "defaults", duplex: "full", want: batch.FullDuplex},
		{name: "half duplex", duplex: "half", want: batch.HalfDuplex},
		{name: "bad duplex", duplex: "simplex", wantErr: true},
		{name: "suspend without mechanism", suspend: true, duplex: "full", wantErr: true},
		{name: "suspend with preempt", suspend: true, preempt: true, duplex: "full", want: batch.FullDuplex},
		{name: "suspend with quantum", suspend: true, quantum: 300 * time.Second, duplex: "full", want: batch.FullDuplex},
		{name: "negative bandwidth", duplex: "full", storeBW: -1, wantErr: true},
		{name: "positive bandwidth", duplex: "half", storeBW: 30, want: batch.HalfDuplex},
	}
	for _, tc := range cases {
		d, err := validateCheckpointFlags(tc.suspend, tc.preempt, tc.quantum, tc.duplex, tc.storeBW)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: flags accepted, want error", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		} else if d != tc.want {
			t.Errorf("%s: duplex %v, want %v", tc.name, d, tc.want)
		}
	}
}

func TestRunMissingTraceFriendlyError(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-trace", "nonexistent.swf"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	msg := errw.String()
	if !strings.Contains(msg, "nonexistent.swf") || !strings.Contains(msg, "no such file") {
		t.Fatalf("stderr is not the friendly message: %q", msg)
	}
	if strings.Contains(msg, "%!") {
		t.Fatalf("mangled format verb in %q", msg)
	}
}

// TestRunPlainTraceReplay pins the un-instrumented path: no
// observability flag means no recorder reaches the scheduler (a
// typed-nil *MemRecorder in the interface field once crashed it). The
// same replay then runs with a fault trace file (-faults, read by
// batch.LoadFaultPlan: a crash and a trunk outage stretch the makespan)
// and with a slower checkpoint store (-store-bandwidth, priced by
// batch.ScaledStoreCosts: the same four checkpoints cost more).
func TestRunPlainTraceReplay(t *testing.T) {
	faults := filepath.Join(t.TempDir(), "storm.txt")
	if err := os.WriteFile(faults, []byte("crash 3 600 1800\ntrunk 1200 300\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string
	}{
		{nil, "policy easy     24 jobs, makespan 59m8s, utilization 80.8%"},
		{[]string{"-faults", faults}, "policy easy     24 jobs, makespan 1h11m11s, utilization 74.0%"},
		{[]string{"-store-bandwidth", "30"}, "  preemption: 4 jobs preempted (4 checkpoints), 210ms checkpoint/restore overhead"},
	}
	for _, tc := range cases {
		var out, errw strings.Builder
		args := append([]string{"-trace", "../../examples/traces/sample.swf", "-policy", "easy", "-preempt"}, tc.args...)
		if code := run(args, &out, &errw); code != 0 {
			t.Fatalf("%v: exit code %d, stderr: %s", tc.args, code, errw.String())
		}
		if !strings.Contains(out.String(), "\n"+tc.want) {
			t.Errorf("%v: no line starting %q in the report:\n%s", tc.args, tc.want, out.String())
		}
	}
}

// TestRunSyntheticMix runs the synthetic mix as the README's quick start
// does: the default FIFO-vs-EASY comparison with its makespan gain
// column, and -execute -v, which shrinks the jobs, runs each workload
// on the functional simulators and prints the per-job table with each
// job's result in the detail column.
func TestRunSyntheticMix(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-jobs", "20"}, "  easy          makespan     1m1s (+0.0%), utilization  53.8%"},
		{[]string{"-jobs", "4", "-nodes", "4", "-policy", "easy", "-execute", "-v"}, "  4    lbm-0003   u3     lbm   2      4     0s        203ms     done      lbm 16x8x8 on 2x1x1: 4 steps, mass 1030.6"},
	}
	for _, tc := range cases {
		var out, errw strings.Builder
		if code := run(tc.args, &out, &errw); code != 0 {
			t.Fatalf("%v: exit code %d, stderr: %s", tc.args, code, errw.String())
		}
		if !strings.Contains(out.String(), "\n"+tc.want) {
			t.Errorf("%v: no line starting %q in the report:\n%s", tc.args, tc.want, out.String())
		}
	}
}

func TestRunBadFlagExitCode(t *testing.T) {
	var out, errw strings.Builder
	// bench/run.sh is the only benchmark harness, and there is one
	// placement engine: a script that still passes the old snapshot
	// flags or -placement must fail as loudly as a typo does.
	for _, args := range [][]string{{"-no-such-flag"}, {"-bench-json", "x"}, {"-bench-scale"},
		{"-placement", "topo"}, {"serve", "-placement", "topo"}} {
		if code := run(args, &out, &errw); code != 2 {
			t.Fatalf("%v: exit code %d, want 2 for a flag parse error", args, code)
		}
	}
	if code := run([]string{"-explain", "-3"}, &out, &errw); code != 1 {
		t.Fatalf("exit code %d, want 1 for a negative -explain", code)
	}
}

// TestSchedulerFlagsRejectedByBothFrontDoors: the one-shot study and
// serve share one scheduler flag set, so each invalid combination must
// be refused by both with the same sentence. serve is given an address
// it cannot listen on: a refusal that quotes the flag instead of the
// address proves it validated before it listened.
func TestSchedulerFlagsRejectedByBothFrontDoors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-suspend-to-host"}, "-suspend-to-host needs a suspension mechanism: enable -preempt and/or -quantum"},
		{[]string{"-nodes", "0"}, "-nodes 0: cluster size must be positive"},
		{[]string{"-store-duplex", "sideways"}, `-store-duplex "sideways": batch: unknown duplex mode "sideways" (want full or half)`},
		{[]string{"-store-bandwidth", "-1"}, "-store-bandwidth -1: bandwidth must be non-negative MB/s (0 selects the paper's Gigabit model)"},
	}
	doors := []struct {
		prefix string
		args   []string
	}{
		{"clusterctl: ", nil},
		{"clusterctl serve: ", []string{"serve", "-addr", "no such address"}},
	}
	for _, tc := range cases {
		for _, door := range doors {
			var out, errw strings.Builder
			args := append(append([]string{}, door.args...), tc.args...)
			if code := run(args, &out, &errw); code != 1 {
				t.Errorf("%v: exit code %d, want 1", args, code)
			}
			if got, want := errw.String(), door.prefix+tc.want+"\n"; got != want {
				t.Errorf("%v: stderr %q, want %q", args, got, want)
			}
		}
	}
}

// TestRunObservabilityOutputs drives the acceptance command end to end:
// a sample-trace run must emit a valid Chrome trace, a per-pass blocker
// breakdown, and a Prometheus metrics file.
func TestRunObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.json")
	metricsPath := filepath.Join(dir, "metrics.prom")
	var out, errw strings.Builder
	code := run([]string{
		"-trace", "../../examples/traces/sample.swf",
		"-policy", "easy", "-preempt",
		"-trace-out", tracePath,
		"-explain", "4",
		"-metrics-out", metricsPath,
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errw.String())
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("-trace-out is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("-trace-out emitted no trace events")
	}
	pids := map[float64]bool{}
	for _, ev := range trace.TraceEvents {
		if pid, ok := ev["pid"].(float64); ok {
			pids[pid] = true
		}
	}
	for _, pid := range []float64{1, 2, 3} {
		if !pids[pid] {
			t.Fatalf("trace lacks track pid %v (want jobs, nodes, store link)", pid)
		}
	}

	stdout := out.String()
	if !strings.Contains(stdout, "job 4: blocked on") {
		t.Fatalf("stdout lacks the -explain breakdown:\n%s", stdout)
	}
	if !strings.Contains(stdout, "dominant blocker:") {
		t.Fatalf("stdout lacks the dominant blocker line:\n%s", stdout)
	}

	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE batch_jobs_submitted_total counter",
		"batch_jobs_completed_total",
		"batch_job_wait_seconds_bucket",
		`policy="easy"`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("-metrics-out missing %q:\n%s", want, prom)
		}
	}
}

func TestCkptWaitColGuardsZeroRestoreRuns(t *testing.T) {
	if got := ckptWaitCol(batch.Report{}); got != "n/a" {
		t.Errorf("zero-restore run rendered %q, want n/a", got)
	}
	r := batch.Report{Counters: batch.Counters{
		PreemptEvents: 3,
		DrainWait:     4 * time.Second,
		RestoreWait:   6 * time.Second,
	}}
	if got := ckptWaitCol(r); got != "4s+6s" {
		t.Errorf("contended run rendered %q, want 4s+6s", got)
	}
}

// TestRunExplainUnknownJob pins the satellite fix: -explain with a job
// ID the run never had must fail loudly instead of printing an empty
// breakdown.
func TestRunExplainUnknownJob(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-trace", "../../examples/traces/sample.swf", "-policy", "easy", "-explain", "9999"},
		&out, &errw)
	if code != 1 {
		t.Fatalf("exit code %d, want 1 for an unknown -explain ID", code)
	}
	if msg := errw.String(); !strings.Contains(msg, "no such job") {
		t.Fatalf("stderr lacks the no-such-job error: %q", msg)
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"frobnicate"}, &out, &errw); code != 2 {
		t.Fatalf("exit code %d, want 2 for an unknown subcommand", code)
	}
	if msg := errw.String(); !strings.Contains(msg, "unknown command") || !strings.Contains(msg, "serve") {
		t.Fatalf("stderr should name the verbs: %q", msg)
	}
}

// TestRunClientVerbs drives submit/queue/info/cancel through the run()
// seam against an in-process daemon — the whole CLI round trip minus
// the process boundary.
func TestRunClientVerbs(t *testing.T) {
	srv := server.New(server.Config{
		Batch: batch.Config{Cluster: batch.NewCluster(4, netsim.GigabitSwitch(4))},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := l.Addr().String()

	var out, errw strings.Builder
	code := run([]string{"submit", "-addr", addr, "-user", "ana", "-kind", "pde",
		"-gang", "2", "-est", "1h", "-name", "probe"}, &out, &errw)
	if code != 0 {
		t.Fatalf("submit exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "job 1 probe: running") {
		t.Fatalf("submit output: %q", out.String())
	}

	out.Reset()
	if code := run([]string{"queue", "-addr", addr}, &out, &errw); code != 0 {
		t.Fatalf("queue exit %d, stderr: %s", code, errw.String())
	}
	if s := out.String(); !strings.Contains(s, "1 running") || !strings.Contains(s, "probe") {
		t.Fatalf("queue output: %q", s)
	}

	out.Reset()
	if code := run([]string{"info", "-addr", addr, "1"}, &out, &errw); code != 0 {
		t.Fatalf("info exit %d, stderr: %s", code, errw.String())
	}
	if s := out.String(); !strings.Contains(s, "job 1 probe: running") || !strings.Contains(s, "user ana") {
		t.Fatalf("info output: %q", s)
	}

	out.Reset()
	if code := run([]string{"cancel", "-addr", addr, "1"}, &out, &errw); code != 0 {
		t.Fatalf("cancel exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "job 1 probe: canceled") {
		t.Fatalf("cancel output: %q", out.String())
	}
	errw.Reset()
	if code := run([]string{"cancel", "-addr", addr, "1"}, &out, &errw); code != 1 {
		t.Fatalf("double cancel exit %d, want 1", code)
	}
	errw.Reset()
	if code := run([]string{"info", "-addr", addr, "not-a-number"}, &out, &errw); code != 1 {
		t.Fatalf("bad ID exit %d, want 1", code)
	}
}

// TestRunClientVerbsOnForgottenJobs: info and cancel print what the
// daemon says of an ID it no longer answers for — aged out of the ledger,
// never assigned, terminal and still on record — and exit 1 on each.
func TestRunClientVerbsOnForgottenJobs(t *testing.T) {
	srv := server.New(server.Config{
		Batch: batch.Config{Cluster: batch.NewCluster(4, netsim.GigabitSwitch(4))},
		Clock: batch.VirtualClock{}, // the pump runs every job the moment it is submitted
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	const jobs = batch.LedgerCapacity + 1 // job 1's record is overwritten
	for i := 0; i < jobs; i++ {
		if _, err := srv.Engine().Ingest(&batch.Job{Kind: batch.KindPDE, Nodes: 1, User: "ana", Est: time.Minute}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(20 * time.Second); srv.Engine().Snapshot().Finished != jobs; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the pump left jobs unfinished: %+v", srv.Engine().Snapshot())
		}
	}
	addr := l.Addr().String()
	for _, tc := range []struct{ verb, id, want string }{
		{"info", "1", "job 1 finished, and its record has aged out of the daemon's ledger (HTTP 404)"},
		{"cancel", "1", "job 1 finished, and its record has aged out of the daemon's ledger (HTTP 404)"},
		{"info", "8194", "no such job: 8194 (HTTP 404)"},
		{"cancel", "8194", "no such job: 8194 (HTTP 404)"},
		{"cancel", "8193", "job already terminal: job 8193 is done (HTTP 409)"},
	} {
		var out, errw strings.Builder
		if code := run([]string{tc.verb, "-addr", addr, tc.id}, &out, &errw); code != 1 {
			t.Errorf("%s %s: exit %d, want 1 (stdout %q)", tc.verb, tc.id, code, out.String())
		}
		if msg := errw.String(); !strings.HasPrefix(msg, "clusterctl "+tc.verb+": server: ") || !strings.Contains(msg, tc.want) {
			t.Errorf("%s %s: stderr %q, want the daemon's message %q", tc.verb, tc.id, msg, tc.want)
		}
	}
	var out, errw strings.Builder
	if code := run([]string{"info", "-addr", addr, "8193"}, &out, &errw); code != 0 || !strings.Contains(out.String(), "job 8193 : done") {
		t.Errorf("info on a retired job still on record: exit %d, stdout %q, stderr %q", code, out.String(), errw.String())
	}
}

// TestRunSlamVerb replays a tiny synthetic trace through the slam
// subcommand against a high-compression daemon.
func TestRunSlamVerb(t *testing.T) {
	srv := server.New(server.Config{
		Batch:    batch.Config{Cluster: batch.NewCluster(4, netsim.GigabitSwitch(4)), Policy: batch.Backfill},
		Compress: 100_000,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	var out, errw strings.Builder
	code := run([]string{"slam", "-addr", l.Addr().String(), "-jobs", "12", "-users", "2",
		"-nodes", "4", "-compress", "100000", "-submitters", "3", "-timeout", "60s"}, &out, &errw)
	if code != 0 {
		t.Fatalf("slam exit %d, stderr: %s", code, errw.String())
	}
	if s := out.String(); !strings.Contains(s, "slam: 12 submitted, 12 accepted") {
		t.Fatalf("slam output: %q", s)
	}
}
