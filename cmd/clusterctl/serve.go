// The clusterctl subcommands put a live front door on the simulator:
// "serve" runs the scheduler as a real-time daemon on a wall clock,
// and submit/cancel/queue/info/slam are its HTTP clients. The flag-only
// invocation (no subcommand) remains the one-shot virtual-time study.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpucluster/internal/batch"
	"gpucluster/internal/batch/server"
)

// subcommands dispatches the daemon-and-client verbs; anything else
// falls through to the classic flag-driven simulation run.
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"serve":  runServe,
	"submit": runSubmit,
	"cancel": runCancel,
	"queue":  runQueue,
	"info":   runInfo,
	"slam":   runSlam,
}

const defaultAddr = "127.0.0.1:8732"

func subFail(stderr io.Writer, cmd, format string, a ...any) int {
	fmt.Fprintf(stderr, "clusterctl %s: "+format+"\n", append([]any{cmd}, a...)...)
	return 1
}

// clientFlags registers the flags every client verb shares.
func clientFlags(fs *flag.FlagSet) (addr, token, user *string) {
	addr = fs.String("addr", defaultAddr, "daemon address (host:port)")
	token = fs.String("token", "", "bearer token (token-auth daemons)")
	user = fs.String("user", "", "submitter name (open-mode daemons)")
	return
}

func newClient(addr, token, user string) *server.Client {
	return &server.Client{Base: "http://" + addr, Token: token, User: user}
}

// ms renders a view's millisecond field as a duration.
func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func runServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clusterctl serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", defaultAddr, "listen address (host:port, :0 picks a free port)")
	sf := addSchedFlags(fs)
	policy := fs.String("policy", "easy", "queue policy: fifo, easy, conservative, or fairshare")
	compress := fs.Float64("compress", 1, "virtual-per-wall time compression factor (1 = real time)")
	maxQueued := fs.Int("max-queued", 0, "per-user cap on queued-or-running jobs (0 = unlimited)")
	maxNodeSec := fs.Float64("max-node-seconds", 0, "per-user cap on committed node-seconds (0 = unlimited)")
	var tokens []string
	fs.Func("auth", "token=user pair enabling bearer-token auth (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want token=user, got %q", v)
		}
		tokens = append(tokens, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pol, err := batch.ParsePolicy(*policy)
	if err != nil {
		return subFail(stderr, "serve", "%v", err)
	}
	newConfig, err := sf.builder()
	if err != nil {
		return subFail(stderr, "serve", "%v", err)
	}
	if *compress <= 0 {
		return subFail(stderr, "serve", "-compress %g: compression must be positive", *compress)
	}
	cfg := server.Config{
		Batch:    newConfig(pol),
		Compress: *compress,
		Quota:    server.Quota{MaxQueued: *maxQueued, MaxNodeSeconds: *maxNodeSec},
	}
	if len(tokens) > 0 {
		cfg.Tokens = make(map[string]string, len(tokens))
		for _, tv := range tokens {
			tok, user, _ := strings.Cut(tv, "=")
			cfg.Tokens[tok] = user
		}
	}
	srv := server.New(cfg)
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return subFail(stderr, "serve", "%v", err)
	}
	auth := "open (X-User attribution)"
	if len(cfg.Tokens) > 0 {
		auth = fmt.Sprintf("bearer-token (%d users)", len(cfg.Tokens))
	}
	fmt.Fprintf(stdout, "clusterctl: serving %d-node %s cluster on http://%s (compress %gx, auth %s)\n",
		sf.nodes, pol, l.Addr(), *compress, auth)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	select {
	case err := <-errCh:
		if err != nil {
			return subFail(stderr, "serve", "%v", err)
		}
		return 0
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(stdout, "clusterctl: draining on signal")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := srv.Shutdown(sctx)
	if serr := <-errCh; err == nil {
		err = serr
	}
	if err != nil {
		return subFail(stderr, "serve", "drain: %v", err)
	}
	fmt.Fprint(stdout, rep)
	return 0
}

func runSubmit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clusterctl submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr, token, user := clientFlags(fs)
	name := fs.String("name", "", "job name")
	kind := fs.String("kind", "lbm", "workload kind: lbm, cg, or pde")
	nodes := fs.Int("gang", 1, "gang width in nodes")
	prio := fs.Int("priority", 0, "priority (higher runs first)")
	est := fs.Duration("est", 0, "walltime estimate in virtual time (0 asks the scheduler's estimator)")
	steps := fs.Int("steps", 0, "workload step count (0 uses the kind's default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	v, err := newClient(*addr, *token, *user).Submit(server.JobSpec{
		Name: *name, Kind: *kind, Nodes: *nodes, Priority: *prio,
		EstSeconds: est.Seconds(), Steps: *steps, User: *user,
	})
	if err != nil {
		return subFail(stderr, "submit", "%v", err)
	}
	fmt.Fprintf(stdout, "job %d %s: %s (%d nodes, est %v)\n", v.ID, v.Name, v.State, v.Nodes, msDur(v.EstMS))
	return 0
}

// argID parses the single positional job-ID argument of cancel/info.
func argID(fs *flag.FlagSet, cmd string, stderr io.Writer) (int, bool) {
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "clusterctl %s: want exactly one job ID argument\n", cmd)
		return 0, false
	}
	id, err := strconv.Atoi(fs.Arg(0))
	if err != nil || id <= 0 {
		fmt.Fprintf(stderr, "clusterctl %s: bad job ID %q\n", cmd, fs.Arg(0))
		return 0, false
	}
	return id, true
}

func runCancel(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clusterctl cancel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr, token, user := clientFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	id, ok := argID(fs, "cancel", stderr)
	if !ok {
		return 1
	}
	v, err := newClient(*addr, *token, *user).Cancel(id)
	if err != nil {
		return subFail(stderr, "cancel", "%v", err)
	}
	fmt.Fprintf(stdout, "job %d %s: %s\n", v.ID, v.Name, v.State)
	return 0
}

func runQueue(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clusterctl queue", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr, token, user := clientFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	q, err := newClient(*addr, *token, *user).Queue()
	if err != nil {
		return subFail(stderr, "queue", "%v", err)
	}
	fmt.Fprintf(stdout, "virtual now %v: %d queued, %d running, %d finished\n",
		batch.RoundDuration(msDur(q.NowMS)), q.Queued, q.Running, q.Finished)
	if len(q.Jobs) > 0 {
		fmt.Fprintf(stdout, "  %-4s %-10s %-6s %-5s %-6s %-8s %-9s %s\n",
			"id", "name", "user", "kind", "nodes", "state", "wait", "est")
		for _, j := range q.Jobs {
			fmt.Fprintf(stdout, "  %-4d %-10s %-6s %-5s %-6d %-8s %-9v %v\n",
				j.ID, j.Name, j.User, j.Kind, j.Nodes, j.State,
				batch.RoundDuration(msDur(j.WaitMS)), batch.RoundDuration(msDur(j.EstMS)))
		}
	}
	return 0
}

func runInfo(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clusterctl info", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr, token, user := clientFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	id, ok := argID(fs, "info", stderr)
	if !ok {
		return 1
	}
	v, err := newClient(*addr, *token, *user).Job(id)
	if err != nil {
		return subFail(stderr, "info", "%v", err)
	}
	fmt.Fprintf(stdout, "job %d %s: %s (user %s, kind %s, %d nodes, priority %d)\n",
		v.ID, v.Name, v.State, v.User, v.Kind, v.Nodes, v.Priority)
	fmt.Fprintf(stdout, "  submitted %v", batch.RoundDuration(msDur(v.SubmitMS)))
	if v.State != "queued" {
		fmt.Fprintf(stdout, ", started %v (waited %v)", batch.RoundDuration(msDur(v.StartMS)), batch.RoundDuration(msDur(v.WaitMS)))
	}
	if v.EndMS > 0 {
		fmt.Fprintf(stdout, ", ended %v", batch.RoundDuration(msDur(v.EndMS)))
	}
	fmt.Fprintln(stdout)
	if v.Preemptions > 0 || v.TimeSlices > 0 {
		fmt.Fprintf(stdout, "  %d preemptions, %d time slices\n", v.Preemptions, v.TimeSlices)
	}
	if v.Detail != "" {
		fmt.Fprintf(stdout, "  detail: %s\n", v.Detail)
	}
	if ex := v.Explain; ex != nil && ex.BlockedPasses > 0 {
		fmt.Fprintf(stdout, "  blocked on %d scheduler passes:", ex.BlockedPasses)
		for _, b := range ex.Blockers {
			fmt.Fprintf(stdout, " %s=%d", b.Reason, b.Passes)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

func runSlam(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clusterctl slam", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr, token, _ := clientFlags(fs)
	tracePath := fs.String("trace", "", "SWF trace to replay (empty generates a synthetic one)")
	jobs := fs.Int("jobs", 120, "synthetic trace size when no -trace is given")
	users := fs.Int("users", 6, "synthetic trace user count")
	seed := fs.Int64("seed", 42, "synthetic trace seed")
	nodes := fs.Int("nodes", 32, "clamp gang widths to this cluster size (0 leaves them)")
	submitters := fs.Int("submitters", 8, "concurrent submitter goroutines")
	compress := fs.Float64("compress", 1000, "replay speed-up over the trace's arrival gaps")
	timeout := fs.Duration("timeout", 60*time.Second, "bound on the whole run, replay plus drain")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var recs []batch.TraceJob
	var err error
	if *tracePath != "" {
		recs, err = batch.LoadTrace(*tracePath)
	} else {
		var buf bytes.Buffer
		n := *nodes
		if n <= 0 {
			n = 32
		}
		if err = batch.WriteSyntheticSWF(&buf, *seed, *jobs, *users, n, 5); err == nil {
			recs, err = batch.ParseTrace(&buf)
		}
	}
	if err != nil {
		return subFail(stderr, "slam", "%v", err)
	}
	res, err := server.Slam(server.SlamConfig{
		Base: "http://" + *addr, Trace: recs, Submitters: *submitters,
		Compress: *compress, MaxNodes: *nodes, Token: *token, Timeout: *timeout,
	})
	if err != nil {
		return subFail(stderr, "slam", "%v", err)
	}
	fmt.Fprintln(stdout, res)
	return 0
}
