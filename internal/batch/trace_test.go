package batch

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

const miniTrace = `
; comment line
  1   0  -1  300  -1  -1  -1   4   360  -1  1   7  1  -1  2  1  -1  -1
  2  30  -1   -1  -1  -1  -1   2   120  -1  1   9  1  -1  0  1  -1  -1
  3  60  -1   90  64  -1  -1  -1   100  -1  1   7  1  -1  1  1  -1  -1
  4  90  -1   -1  -1  -1  -1  -1    -1  -1  5   9  1  -1  0  1  -1  -1
  5 120  -1   80  -1  -1  -1   2    -1  -1  1   9  1  -1  1  1  -1  -1
`

func TestParseTraceSWF(t *testing.T) {
	recs, err := ParseTrace(strings.NewReader(miniTrace))
	if err != nil {
		t.Fatal(err)
	}
	// Record 4 has neither processors nor any runtime: skipped.
	if len(recs) != 4 {
		t.Fatalf("parsed %d records, want 4", len(recs))
	}
	r := recs[0]
	if r.ID != 1 || r.Submit != 0 || r.Run != 300*time.Second || r.Procs != 4 ||
		r.Req != 360*time.Second || r.User != "u7" || r.Queue != 2 || r.Status != 1 {
		t.Fatalf("record 1 parsed as %+v", r)
	}
	// Record 3 falls back from requested to allocated processors.
	if recs[2].Procs != 64 {
		t.Fatalf("record 3 procs %d, want allocated fallback 64", recs[2].Procs)
	}
	// Record 5 has no requested time: the run time stands in.
	if recs[3].Req != 0 || recs[3].Run != 80*time.Second {
		t.Fatalf("record 5 parsed as %+v", recs[3])
	}

	if _, err := ParseTrace(strings.NewReader("1 2 3\n")); err == nil {
		t.Fatal("short line accepted")
	}
	if _, err := ParseTrace(strings.NewReader(strings.Replace(miniTrace, "300", "x", 1))); err == nil {
		t.Fatal("unparsable field accepted")
	}
}

func TestTraceJobsMapping(t *testing.T) {
	recs, err := ParseTrace(strings.NewReader(miniTrace))
	if err != nil {
		t.Fatal(err)
	}
	jobs, actual := TraceJobs(recs, 32)
	if len(jobs) != 4 {
		t.Fatalf("mapped %d jobs, want 4", len(jobs))
	}
	j := jobs[0]
	if j.Nodes != 4 || j.Priority != 2 || j.User != "u7" ||
		j.Est != 360*time.Second || j.Submit != 0 {
		t.Fatalf("job 1 mapped as %+v", j)
	}
	// The recorded runtime replays through the Actual hook; the
	// estimate stands in when the trace does not know it.
	if got := actual(j, j.Est); got != 300*time.Second {
		t.Fatalf("actual(job 1) = %v, want the recorded 300s", got)
	}
	if got := actual(jobs[1], jobs[1].Est); got != 120*time.Second {
		t.Fatalf("actual(job 2) = %v, want its 120s estimate (run unknown)", got)
	}
	// A gang wider than the cluster is clamped to it.
	if jobs[2].Nodes != 32 {
		t.Fatalf("job 3 nodes %d, want clamped 32", jobs[2].Nodes)
	}
	// Job 5's estimate falls back to the recorded runtime.
	if jobs[3].Est != 80*time.Second {
		t.Fatalf("job 5 est %v, want 80s", jobs[3].Est)
	}
}

// TestExampleTraceAllPolicies is the integration test over the bundled
// trace: every policy (with and without preemption) drains the same
// recorded workload to completion, deterministically, with no gang
// overlap — the clusterctl -trace comparison path.
func TestExampleTraceAllPolicies(t *testing.T) {
	recs, err := LoadTrace("../../examples/traces/sample.swf")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 24 {
		t.Fatalf("sample trace has %d records, want 24", len(recs))
	}
	run := func(pol Policy, preempt bool) Report {
		jobs, actual := TraceJobs(recs, 32)
		s := New(Config{
			Cluster:       newTestCluster(32),
			Policy:        pol,
			Actual:        actual,
			TrunkSlowdown: 1.1,
			Preempt:       preempt,
		})
		submitAll(t, s, jobs)
		return s.Run()
	}
	for _, pol := range Policies() {
		for _, preempt := range []bool{false, true} {
			a := run(pol, preempt)
			if len(a.Jobs) != 24 || a.Failed != 0 {
				t.Fatalf("%v preempt=%v: finished %d jobs, %d failed", pol, preempt, len(a.Jobs), a.Failed)
			}
			checkNoOverlap(t, a.Jobs, 32)
			b := run(pol, preempt)
			if a.Makespan != b.Makespan || a.AvgWait != b.AvgWait {
				t.Fatalf("%v preempt=%v: replay diverged (%v/%v vs %v/%v)",
					pol, preempt, a.Makespan, a.AvgWait, b.Makespan, b.AvgWait)
			}
		}
	}
	// The trace's shape separates the disciplines: u12's six wide jobs
	// block the head, so EASY must beat FIFO on makespan, and the
	// fair-share order must cut the light users' average wait.
	fifo, easy, fair := run(FIFO, false), run(Backfill, false), run(FairShare, false)
	if easy.Makespan >= fifo.Makespan {
		t.Errorf("easy makespan %v not below fifo %v on the sample trace", easy.Makespan, fifo.Makespan)
	}
	lightWait := func(rep Report) time.Duration {
		var sum time.Duration
		var n int
		for _, j := range rep.Jobs {
			if j.User != "u12" {
				sum += j.Wait()
				n++
			}
		}
		return sum / time.Duration(n)
	}
	if lightWait(fair) > lightWait(easy) {
		t.Errorf("fair-share light-user wait %v above easy %v", lightWait(fair), lightWait(easy))
	}
}

// TestParseTraceMalformed pins the hardening sweep: every corrupt
// shape is rejected with an error naming the offending line and field,
// while SWF's -1 "unknown" marker stays legal everywhere the replay
// reads.
func TestParseTraceMalformed(t *testing.T) {
	const good = "1 0 -1 300 -1 -1 -1 4 360 -1 1 7 1 -1 2 1 -1 -1"
	mutate := func(field int, val string) string {
		f := strings.Fields(good)
		f[field-1] = val
		return strings.Join(f, " ")
	}
	cases := []struct {
		name    string
		line    string
		wantErr string // substring the error must carry; "" means legal
	}{
		{"short line", "1 2 3", "want >= 15"},
		{"non-numeric run time", mutate(4, "abc"), "field 4"},
		{"non-numeric procs", mutate(8, "four"), "field 8"},
		{"negative job number", mutate(1, "-9"), "field 1 (job number)"},
		{"negative submit", mutate(2, "-5"), "field 2 (submit time)"},
		{"negative run time", mutate(4, "-300"), "field 4 (run time)"},
		{"negative allocated procs", mutate(5, "-2"), "field 5 (allocated procs)"},
		{"negative requested procs", mutate(8, "-4"), "field 8 (requested procs)"},
		{"negative requested time", mutate(9, "-60"), "field 9 (requested time)"},
		{"negative user id", mutate(12, "-7"), "field 12 (user id)"},
		{"unknown submit marker", mutate(2, "-1"), ""},
		{"unknown run marker", mutate(4, "-1"), ""},
		{"unknown user marker", mutate(12, "-1"), ""},
		{"fractional seconds", mutate(2, "0.5"), ""},
		{"NaN submit", mutate(2, "NaN"), "field 2"},
		{"overflowing run time", mutate(4, "1e300"), "field 4"},
		{"infinite queue", mutate(15, "inf"), "field 15"},
		{"largest 32-bit job number", mutate(1, "2147483647"), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The malformed record rides behind a good one, so the
			// error must point at line 2, not line 1.
			_, err := ParseTrace(strings.NewReader(good + "\n" + tc.line + "\n"))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("legal record rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("malformed record %q accepted", tc.line)
			}
			if !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "line 2") {
				t.Fatalf("error %q lacks %q or the line number", err, tc.wantErr)
			}
		})
	}
}

// FuzzParseTrace feeds ParseTrace arbitrary text. It must never panic,
// and every record of a successful parse must lie in the ranges the
// parser documents: a positive gang width, non-negative times of which
// the requested or the run time is positive, a job number and user id
// no lower than SWF's -1 unknown marker, and the queue and status inside
// SWF's 32-bit integer range. The seed corpus (testdata/fuzz) holds the
// sample trace's records and TestParseTraceMalformed's table.
func FuzzParseTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		recs, err := ParseTrace(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, r := range recs {
			if r.Procs <= 0 || r.Submit < 0 || r.Run < 0 || r.Req < 0 || (r.Run == 0 && r.Req == 0) ||
				r.ID < -1 || r.Queue <= -1<<31 || r.Queue >= 1<<31 || r.Status <= -1<<31 || r.Status >= 1<<31 {
				t.Fatalf("record out of range: %+v", r)
			}
			if id, err := strconv.Atoi(strings.TrimPrefix(r.User, "u")); err != nil || id < -1 || r.User != "u"+strconv.Itoa(id) {
				t.Fatalf("record %d has user %q, want u<id> with id >= -1", r.ID, r.User)
			}
		}
	})
}
