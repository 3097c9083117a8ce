package batch

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// sampleTraceConfig mirrors the acceptance command
//
//	clusterctl -trace examples/traces/sample.swf -policy backfill -preempt -trace-out run.json
//
// so the golden trace below is byte-identical to what the CLI writes.
func sampleTraceRun(t *testing.T, rec Recorder) Report {
	t.Helper()
	recs, err := LoadTrace("../../examples/traces/sample.swf")
	if err != nil {
		t.Fatal(err)
	}
	jobs, actual := TraceJobs(recs, 32)
	s := New(Config{
		Cluster:       newTestCluster(32),
		Policy:        Backfill,
		Actual:        actual,
		TrunkSlowdown: 1.1,
		Preempt:       true,
		Recorder:      rec,
	})
	submitAll(t, s, jobs)
	return s.Run()
}

// TestChromeTraceGolden pins the Chrome trace-event export of the
// bundled sample trace byte for byte. Set REGEN_TRACE=1 to rewrite the
// golden file after an intentional exporter or scheduler change.
func TestChromeTraceGolden(t *testing.T) {
	const golden = "testdata/sample_trace.json"
	rep := sampleTraceRun(t, &MemRecorder{})
	var buf bytes.Buffer
	if err := rep.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("REGEN_TRACE") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	disk, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with REGEN_TRACE=1 to generate)", err)
	}
	if !bytes.Equal(disk, buf.Bytes()) {
		t.Fatalf("%s does not match the exporter's output (%d vs %d bytes); regenerate with REGEN_TRACE=1 after an intentional change",
			golden, len(disk), buf.Len())
	}
	// The golden bytes must also be what they claim: valid JSON with
	// job, node, and store-link (both directions) tracks present.
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(disk, &doc); err != nil {
		t.Fatalf("golden trace is not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	linkTids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		pids[e.Pid] = true
		if e.Pid == tracePidLink && e.Ph == "X" {
			linkTids[e.Tid] = true
		}
	}
	for _, pid := range []int{tracePidJobs, tracePidNodes, tracePidLink} {
		if !pids[pid] {
			t.Errorf("golden trace has no events for pid %d", pid)
		}
	}
	if !linkTids[traceTidWrite] || !linkTids[traceTidRead] {
		t.Errorf("store-link tracks incomplete: write=%v read=%v (a preempting backfill replay must drive both directions)",
			linkTids[traceTidWrite], linkTids[traceTidRead])
	}
}

// TestChromeTraceFaultGolden pins the exporter's fault tracks: the
// sample replay under a designed storm (two node crashes, one trunk
// outage, proactive checkpointing on) must export byte-identically,
// with "down" slices on the node track and a dedicated "trunk" thread
// carrying the outage window. Set REGEN_TRACE=1 to rewrite the golden
// after an intentional exporter or scheduler change.
func TestChromeTraceFaultGolden(t *testing.T) {
	const golden = "testdata/fault_trace.json"
	recs, err := LoadTrace("../../examples/traces/sample.swf")
	if err != nil {
		t.Fatal(err)
	}
	jobs, actual := TraceJobs(recs, 32)
	rec := &MemRecorder{}
	s := New(Config{
		Cluster:       newTestCluster(32),
		Policy:        Backfill,
		Actual:        actual,
		TrunkSlowdown: 1.1,
		Preempt:       true,
		Recorder:      rec,
		Faults: &FaultPlan{
			Crashes: []NodeFault{
				{Node: 3, At: 10 * time.Minute, Repair: 2 * time.Minute},
				{Node: 20, At: 25 * time.Minute, Repair: 90 * time.Second},
			},
			Trunks: []TrunkFault{{At: 35 * time.Minute, Duration: time.Minute}},
		},
		CheckpointInterval: 5 * time.Minute,
	})
	submitAll(t, s, jobs)
	rep := s.Run()
	if rep.NodeFaults != 2 || rep.TrunkOutages != 1 {
		t.Fatalf("storm applied %d node faults and %d trunk outages, want 2 and 1", rep.NodeFaults, rep.TrunkOutages)
	}
	var buf bytes.Buffer
	if err := rep.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("REGEN_TRACE") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	disk, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with REGEN_TRACE=1 to generate)", err)
	}
	if !bytes.Equal(disk, buf.Bytes()) {
		t.Fatalf("%s does not match the exporter's output (%d vs %d bytes); regenerate with REGEN_TRACE=1 after an intentional change",
			golden, len(disk), buf.Len())
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(disk, &doc); err != nil {
		t.Fatalf("golden fault trace is not valid JSON: %v", err)
	}
	downs, outages, trunkThread := 0, 0, false
	for _, e := range doc.TraceEvents {
		switch {
		case e.Pid == tracePidNodes && e.Ph == "X" && e.Name == "down":
			downs++
		case e.Pid == tracePidNodes && e.Ph == "X" && e.Name == "trunk outage":
			outages++
		case e.Ph == "M" && e.Name == "thread_name" && e.Args["name"] == "trunk":
			trunkThread = true
		}
	}
	if downs != 2 || outages != 1 || !trunkThread {
		t.Fatalf("fault tracks incomplete: %d down slices, %d outage slices, trunk thread %v (want 2, 1, true)",
			downs, outages, trunkThread)
	}
}

// TestEventStreamDeterminism replays the same mix twice under every
// policy, with and without preemption and time-slicing, and asserts the
// two recorded event streams are identical — the property the whole
// observability layer leans on (goldens, explanations, metrics all
// assume a replay reproduces its run).
func TestEventStreamDeterminism(t *testing.T) {
	const nodes = 32
	configs := []struct {
		name    string
		preempt bool
		quantum time.Duration
		suspend bool
	}{
		{"plain", false, 0, false},
		{"preempt", true, 0, false},
		{"quantum", false, 300 * time.Second, false},
		{"preempt+quantum+host", true, 300 * time.Second, true},
	}
	for _, pol := range Policies() {
		for _, cc := range configs {
			t.Run(pol.String()+"/"+cc.name, func(t *testing.T) {
				run := func() []Event {
					rec := &MemRecorder{}
					s := New(Config{
						Cluster:       newTestCluster(nodes),
						Policy:        pol,
						TrunkSlowdown: 1.1,
						Preempt:       cc.preempt,
						Quantum:       cc.quantum,
						SuspendToHost: cc.suspend,
						Recorder:      rec,
					})
					submitAll(t, s, SyntheticStream(11, 120, nodes, 5*time.Second))
					s.Run()
					return append([]Event(nil), rec.Events()...)
				}
				a, b := run(), run()
				if len(a) != len(b) {
					t.Fatalf("replay produced %d events, first run %d", len(b), len(a))
				}
				for i := range a {
					if !reflect.DeepEqual(a[i], b[i]) {
						t.Fatalf("event %d differs between replays:\n  first:  %+v\n  second: %+v", i, a[i], b[i])
					}
				}
			})
		}
	}
}

// TestReportTimeline covers the Report.Timeline accessor: the per-job
// view is exactly the job's events in stream order, and a run without a
// recorder yields an empty timeline rather than a panic.
func TestReportTimeline(t *testing.T) {
	rec := &MemRecorder{}
	rep := sampleTraceRun(t, rec)
	if len(rep.Jobs) == 0 || len(rep.Events) != len(rec.Events()) {
		t.Fatalf("%d jobs in sample replay; the report copied %d events, the recorder holds %d", len(rep.Jobs), len(rep.Events), len(rec.Events()))
	}
	j := rep.Jobs[0]
	tl := rep.Timeline(j.ID)
	if len(tl) == 0 {
		t.Fatalf("job %d has an empty timeline", j.ID)
	}
	if tl[0].Kind != EvSubmit {
		t.Fatalf("timeline starts with %v, want submit", tl[0].Kind)
	}
	if last := tl[len(tl)-1]; last.Kind != EvComplete {
		t.Fatalf("timeline ends with %v, want complete", last.Kind)
	}
	want := 0
	for _, ev := range rep.Events {
		if ev.Job == j.ID {
			if !reflect.DeepEqual(tl[want], ev) {
				t.Fatalf("timeline[%d] = %+v, stream has %+v", want, tl[want], ev)
			}
			want++
		}
	}
	if want != len(tl) {
		t.Fatalf("timeline has %d events, stream holds %d for job %d", len(tl), want, j.ID)
	}
	// No recorder: empty timeline, no panic.
	bare := sampleTraceRun(t, nil)
	if tl := bare.Timeline(j.ID); len(tl) != 0 {
		t.Fatalf("recorder-less run produced a %d-event timeline", len(tl))
	}
}

// TestPassOnceZeroAllocNilRecorder pins the zero-cost-when-disabled
// claim: a scheduling pass over a blocked queue with no recorder and no
// metrics attached allocates nothing — under FIFO, which stops at the
// head, under EASY, whose walk behind the head jumps refused queue
// blocks (queue.go), and under fair-share with the queue re-sorted
// every pass, as a usage charge that passes another user's key does.
// (The queue is pre-sorted by a warmup pass; the lazily-sorted queue
// only re-sorts after a mutation.)
func TestPassOnceZeroAllocNilRecorder(t *testing.T) {
	t.Run("FIFO", func(t *testing.T) {
		s := New(Config{Cluster: newTestCluster(4), Policy: FIFO})
		hog := &Job{Name: "hog", Kind: KindLBM, Nodes: 4, Est: time.Hour}
		blocked := &Job{Name: "blocked", Kind: KindCG, Nodes: 2, Est: time.Minute}
		submitAll(t, s, []*Job{hog, blocked})
		s.schedulePass() // hog starts, blocked parks; queue order cached
		if got := s.pending.len(); got != 1 {
			t.Fatalf("%d pending jobs after warmup, want 1", got)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.passOnce() }); allocs != 0 {
			t.Fatalf("passOnce with nil recorder allocates %v times per pass, want 0", allocs)
		}
	})
	t.Run("Backfill", func(t *testing.T) {
		// A 6-node hog holds the head's reservation 100 s away; behind
		// the head, four blocks of 3-node gangs (too wide for the 2 free
		// nodes) and 1-node ones (too long for the reservation).
		s := New(Config{Cluster: newTestCluster(8), Policy: Backfill})
		jobs := []*Job{ruleJob("hog", 6, 0, 100*time.Second, 0), ruleJob("head", 8, 0, time.Second, 0)}
		for i := 0; i < 4*scanBlock; i++ {
			jobs = append(jobs, ruleJob("behind", 1+2*(i%2), 0, 200*time.Second, 0))
		}
		submitAll(t, s, jobs)
		s.schedulePass() // hog starts, the rest park; queue order cached
		if got := s.pending.len(); got != len(jobs)-1 {
			t.Fatalf("%d pending jobs after warmup, want %d", got, len(jobs)-1)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.passOnce() }); allocs != 0 {
			t.Fatalf("passOnce with nil recorder allocates %v times per pass, want 0", allocs)
		}
	})
	t.Run("FairShare", func(t *testing.T) {
		s := New(Config{Cluster: newTestCluster(8), Policy: FairShare})
		jobs := []*Job{ruleJob("hog", 6, 0, 100*time.Second, 0), ruleJob("head", 8, 0, time.Second, 0)}
		for i := 0; i < 4*scanBlock; i++ {
			j := ruleJob("behind", 1+2*(i%2), 0, 200*time.Second, 0)
			j.User = string(rune('a' + i%5))
			jobs = append(jobs, j)
		}
		submitAll(t, s, jobs)
		s.schedulePass()
		if got := s.pending.len(); got != len(jobs)-1 {
			t.Fatalf("%d pending jobs after warmup, want %d", got, len(jobs)-1)
		}
		allocs := testing.AllocsPerRun(100, func() {
			s.pending.dirty = true
			s.passOnce()
		})
		if allocs != 0 {
			t.Fatalf("passOnce re-sorting the queue allocates %v times per pass, want 0", allocs)
		}
	})
}

// TestRingRecorderKeepsTail feeds a RingRecorder and a MemRecorder the
// same stream, several times the ring's capacity: the ring holds the
// last RingCapacity lifecycle events of it, in record order, and none
// of the EvBlocked ones.
func TestRingRecorderKeepsTail(t *testing.T) {
	ring, mem := &RingRecorder{}, &MemRecorder{}
	check := func() {
		t.Helper()
		want := mem.Events()
		if len(want) > RingCapacity {
			want = want[len(want)-RingCapacity:]
		}
		got := ring.Events()
		if len(got) != len(want) {
			t.Fatalf("ring holds %d events, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Job != want[i].Job || got[i].Kind != want[i].Kind {
				t.Fatalf("ring event %d is %+v, want %+v", i, got[i], want[i])
			}
		}
	}
	check()
	for seq := 0; seq < 3*RingCapacity+7; seq++ {
		ev := Event{Job: seq, Kind: EventKind(seq % int(EvTrunkUp+1))}
		ring.Record(ev)
		if ev.Kind != EvBlocked {
			mem.Record(ev)
		}
		if seq == RingCapacity/2 || seq == RingCapacity+RingCapacity/16 {
			check() // part full; around the first wrap
		}
	}
	check()
}
