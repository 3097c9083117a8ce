package batch

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"
)

// Trace-driven workload replay. ParseTrace reads the Standard Workload
// Format (SWF) used by the Parallel Workloads Archive: one job per
// line, 18 whitespace-separated fields, ';' comment lines. TraceJobs
// maps the records onto batch Job specs so the same recorded workload
// can be replayed under every queue policy — the clusterctl
// "-trace file.swf -policy all" comparison.
//
// SWF fields (1-based); -1 marks unknown values:
//
//	 1 job number        7 used memory       13 group id
//	 2 submit time (s)   8 requested procs   14 executable id
//	 3 wait time         9 requested time    15 queue number
//	 4 run time         10 requested memory  16 partition
//	 5 allocated procs  11 status            17 preceding job
//	 6 avg cpu time     12 user id           18 think time
//
// The replay uses submit time, requested procs (falling back to
// allocated), requested time as the walltime estimate, run time as the
// true runtime (the Actual hook — imperfect estimates, as recorded),
// user id for fair-share, and queue number as the priority.

// TraceJob is one parsed SWF record, reduced to the fields the replay
// uses.
type TraceJob struct {
	// ID is the trace's job number.
	ID int
	// Submit is the arrival time relative to the trace start.
	Submit time.Duration
	// Run is the recorded runtime; 0 when the trace marks it unknown.
	Run time.Duration
	// Procs is the node request (requested procs, falling back to
	// allocated procs).
	Procs int
	// Req is the requested walltime (the user's estimate); 0 unknown.
	Req time.Duration
	// User is the submitting user ("u<id>").
	User string
	// Queue is the trace's queue number, replayed as the priority.
	Queue int
	// Status is the SWF completion status (1 completed, 0 failed, 5
	// cancelled, -1 unknown).
	Status int
}

// ParseTrace reads an SWF-style trace. Records missing both a positive
// requested time and a positive run time, or without a positive
// processor count, are skipped (cancelled-before-start entries). Any
// field parseField refuses is an error carrying the line number, as is
// any negative value other than SWF's -1 "unknown" marker: a -3 runtime
// or a negative gang width is a corrupt record, and clamping it to zero
// would silently reshape the replayed workload. A record returned has
// Procs > 0, no negative time, and ID and user id >= -1.
func ParseTrace(r io.Reader) ([]TraceJob, error) {
	sc := bufio.NewScanner(r)
	var out []TraceJob
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 15 {
			return nil, fmt.Errorf("batch: trace line %d: %d fields, want >= 15 (SWF has 18)", lineNo, len(f))
		}
		num := func(i int) (float64, error) {
			v, err := parseField(f[i-1])
			if err != nil {
				return 0, fmt.Errorf("batch: trace line %d field %d: %v", lineNo, i, err)
			}
			return v, nil
		}
		var vals [15]float64
		for i := 1; i <= 15; i++ {
			v, err := num(i)
			if err != nil {
				return nil, err
			}
			vals[i-1] = v
		}
		// The fields the replay consumes must be non-negative or SWF's
		// exact -1 unknown marker.
		for _, c := range [...]struct {
			field int
			name  string
		}{
			{1, "job number"}, {2, "submit time"}, {4, "run time"},
			{5, "allocated procs"}, {8, "requested procs"},
			{9, "requested time"}, {12, "user id"},
		} {
			if v := vals[c.field-1]; v < 0 && v != -1 {
				return nil, fmt.Errorf("batch: trace line %d field %d (%s): negative value %g (-1 is the only unknown marker)",
					lineNo, c.field, c.name, v)
			}
		}
		secs := func(v float64) time.Duration {
			if v <= 0 {
				return 0
			}
			return time.Duration(v * float64(time.Second))
		}
		procs := int(vals[7]) // requested
		if procs <= 0 {
			procs = int(vals[4]) // allocated
		}
		tj := TraceJob{
			ID:     int(vals[0]),
			Submit: secs(vals[1]),
			Run:    secs(vals[3]),
			Procs:  procs,
			Req:    secs(vals[8]),
			User:   fmt.Sprintf("u%d", int(vals[11])),
			Queue:  int(vals[14]),
			Status: int(vals[10]),
		}
		if tj.Procs <= 0 || (tj.Req <= 0 && tj.Run <= 0) {
			continue
		}
		out = append(out, tj)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("batch: reading trace: %w", err)
	}
	return out, nil
}

// parseField parses a trace or fault-plan number: finite and below 2^31
// in magnitude, SWF's 32-bit width, so that no conversion can overflow.
func parseField(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && !(v > -1<<31 && v < 1<<31) {
		err = fmt.Errorf("%q is not a number below 2^31 in magnitude", s)
	}
	return v, err
}

// LoadTrace reads an SWF-style trace file.
func LoadTrace(path string) ([]TraceJob, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ParseTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// WriteSyntheticSWF writes a deterministic synthetic workload in SWF to
// w: count jobs from users U0..U(users-1) on an n-node machine, arrivals
// spaced by a uniform gap in [0, 2*meanGapSec], mostly narrow/short
// submissions with occasional wide long ones (the skew that separates
// the disciplines), runtimes deviating from the requested walltimes the
// way recorded traces do, and the occasional high queue number standing
// in for a priority lane. The bundled soak trace
// (examples/traces/soak.swf) is this function's output — regenerate it
// with the same arguments and it reproduces byte for byte, which the
// soak test pins.
func WriteSyntheticSWF(w io.Writer, seed int64, count, users, n int, meanGapSec int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "; synthetic SWF workload: seed %d, %d jobs, %d users, %d-node machine\n", seed, count, users, n)
	fmt.Fprintf(bw, "; generated by batch.WriteSyntheticSWF — do not hand-edit, regenerate instead\n")
	rng := rand.New(rand.NewSource(seed))
	submit := 0
	for id := 1; id <= count; id++ {
		submit += rng.Intn(2*meanGapSec + 1)
		var procs, reqSec int
		switch p := rng.Float64(); {
		case p < 0.55: // narrow short stream
			procs, reqSec = 1+rng.Intn(2), 60+30*rng.Intn(8)
		case p < 0.80: // mid-width, mid-length
			procs, reqSec = 2+rng.Intn(n/4+1), 300+60*rng.Intn(10)
		case p < 0.95: // wide simulation jobs
			procs, reqSec = n/4+1+rng.Intn(n/4+1), 600+120*rng.Intn(10)
		default: // the occasional machine-spanning hog
			procs, reqSec = n/2+1+rng.Intn(n/2), 1200+300*rng.Intn(6)
		}
		// Recorded runtimes miss their estimates both ways: 60%..105%
		// of the requested walltime, never zero.
		runSec := reqSec * (60 + rng.Intn(46)) / 100
		if runSec < 1 {
			runSec = 1
		}
		user := rng.Intn(users)
		queue := 1
		if rng.Float64() < 0.08 {
			queue = 2 // priority lane
		}
		fmt.Fprintf(bw, "%6d %7d -1 %6d -1 -1 -1 %4d %6d -1 1 %3d 1 -1 %d 1 -1 -1\n",
			id, submit, runSec, procs, reqSec, user, queue)
	}
	return bw.Flush()
}

// TraceJobs maps trace records onto Job specs for an n-node cluster,
// plus the Actual hook replaying each record's true runtime against its
// requested-time estimate. Gangs wider than the cluster are clamped to
// it (the archive's machines differ in size); the workload kind rotates
// per record — SWF does not say what a job computed, and the rotation
// exercises every adapter with its default problem size. The returned
// specs are replayable: submit the same slice to one scheduler per
// policy under comparison.
func TraceJobs(recs []TraceJob, n int) ([]*Job, func(*Job, time.Duration) time.Duration) {
	jobs := make([]*Job, 0, len(recs))
	run := make(map[*Job]time.Duration, len(recs))
	for _, r := range recs {
		nodes := r.Procs
		if nodes > n {
			nodes = n
		}
		est := r.Req
		if est <= 0 {
			est = r.Run
		}
		j := &Job{
			Name:     fmt.Sprintf("trace-%d", r.ID),
			Kind:     JobKind(r.ID % int(numKinds)),
			Nodes:    nodes,
			Priority: r.Queue,
			User:     r.User,
			Est:      est,
			Submit:   r.Submit,
		}
		if r.Run > 0 {
			run[j] = r.Run
		}
		jobs = append(jobs, j)
	}
	actual := func(j *Job, est time.Duration) time.Duration {
		if d, ok := run[j]; ok {
			return d
		}
		return est
	}
	return jobs, actual
}
