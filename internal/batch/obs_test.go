package batch

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
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

// TestRecorderLifecycleCoverage drives a contended run (preemption,
// time-slicing, suspend-to-host, staggered arrivals) and checks the
// recorded stream is a complete, consistent account of the schedule:
// every job submits and completes exactly once, dispatches pair with
// segment ends that reproduce Segments, drains match the report's
// suspension counts, and the store link's directions never double-book.
func TestRecorderLifecycleCoverage(t *testing.T) {
	const nodes = 32
	rec := &MemRecorder{}
	s := New(Config{
		Cluster:       newTestCluster(nodes),
		Policy:        Backfill,
		TrunkSlowdown: 1.1,
		Preempt:       true,
		Quantum:       300 * time.Second,
		SuspendToHost: true,
		Recorder:      rec,
	})
	jobs := SyntheticStream(3, 150, nodes, 5*time.Second)
	submitAll(t, s, jobs)
	rep := s.Run()
	events := rec.Events()
	if len(rep.Events) != len(events) {
		t.Fatalf("report copied %d events, recorder holds %d", len(rep.Events), len(events))
	}

	counts := map[int]map[EventKind]int{}
	type iv struct{ from, to time.Duration }
	var segs = map[int][]iv{}
	var writes, reads []iv
	cancelled := map[[2]int64]bool{} // (job, readStart µs) bookings released mid-restore
	drains, requeues, hostSuspends := 0, 0, 0
	lastPass := 0
	for _, ev := range events {
		if counts[ev.Job] == nil {
			counts[ev.Job] = map[EventKind]int{}
		}
		counts[ev.Job][ev.Kind]++
		switch ev.Kind {
		case EvSegmentEnd:
			segs[ev.Job] = append(segs[ev.Job], iv{ev.From, ev.To})
		case EvStoreWrite:
			writes = append(writes, iv{ev.From, ev.To})
		case EvStoreRead:
			if ev.Detail == "cancel" {
				cancelled[[2]int64{int64(ev.Job), int64(ev.From)}] = true
			} else {
				reads = append(reads, iv{ev.From, ev.To})
			}
		case EvDrainBegin:
			drains++
		case EvRequeue:
			requeues++
		case EvHostSuspend:
			hostSuspends++
		case EvBlocked:
			if ev.Pass < lastPass {
				t.Fatalf("pass numbers regressed: %d after %d", ev.Pass, lastPass)
			}
			lastPass = ev.Pass
			if ev.Reason == ReasonNone {
				t.Fatalf("EvBlocked for job %d carries ReasonNone", ev.Job)
			}
		}
	}

	for _, j := range rep.Jobs {
		c := counts[j.ID]
		if c[EvSubmit] != 1 || c[EvComplete] != 1 {
			t.Fatalf("job %d: %d submits, %d completes (want exactly 1 each)", j.ID, c[EvSubmit], c[EvComplete])
		}
		segments := j.Segments()
		if c[EvDispatch] != len(segments) || c[EvSegmentEnd] != len(segments) {
			t.Fatalf("job %d: %d dispatches, %d segment ends, %d segments",
				j.ID, c[EvDispatch], c[EvSegmentEnd], len(segments))
		}
		for i, seg := range segments {
			if got := segs[j.ID][i]; got.from != seg.Start || got.to != seg.End {
				t.Fatalf("job %d segment %d: events say [%v,%v), Segments says [%v,%v)",
					j.ID, i, got.from, got.to, seg.Start, seg.End)
			}
		}
	}
	if want := rep.PreemptEvents + rep.SliceEvents; drains != want {
		t.Fatalf("%d EvDrainBegin events, report counts %d suspensions", drains, want)
	}
	if drains != requeues {
		t.Fatalf("%d drains but %d requeues", drains, requeues)
	}
	if hostSuspends != rep.HostSuspends {
		t.Fatalf("%d EvHostSuspend events, report counts %d", hostSuspends, rep.HostSuspends)
	}
	if drains == 0 || hostSuspends == 0 || len(writes) == 0 || len(reads) == 0 {
		t.Fatalf("contended run exercised too little: drains=%d hostSuspends=%d writes=%d reads=%d",
			drains, hostSuspends, len(writes), len(reads))
	}

	// A direction's transfers serialize on its timeline, so recorded
	// intervals must never overlap. Cancelled read bookings gave their
	// tail back — a later read may legitimately start inside one — so
	// they are excluded above.
	checkSerial := func(name string, ivs []iv) {
		sort.Slice(ivs, func(i, k int) bool { return ivs[i].from < ivs[k].from })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].from < ivs[i-1].to {
				t.Fatalf("store-link %s direction double-booked: [%v,%v) overlaps [%v,%v)",
					name, ivs[i-1].from, ivs[i-1].to, ivs[i].from, ivs[i].to)
			}
		}
	}
	checkSerial("write", writes)
	kept := reads[:0]
	for _, r := range reads {
		keep := true
		for key := range cancelled {
			if time.Duration(key[1]) == r.from {
				keep = false
				break
			}
		}
		if keep {
			kept = append(kept, r)
		}
	}
	checkSerial("read", kept)
}

// TestSegmentsMatchEventLog is the differential test of the derived final
// segment. Over randomSweepCase configurations (policy × preempt ×
// quantum × suspend-to-host × fault plan × ...), half of them canceling
// a job every few rounds and a third failing every fifth job at
// completion, each job's Segments — the stored History plus, for a Done
// or Failed job, the segment read off Alloc, segStart and End — must
// equal the segments rebuilt from its recorded EvSegmentEnd events:
// every site that ends a segment records one, and only a "run" end is
// not stored.
func TestSegmentsMatchEventLog(t *testing.T) {
	configs := 1200
	if testing.Short() {
		configs = 300
	}
	ends := map[string]int{}
	failed, canceled := 0, 0
	for seed := int64(1); seed <= int64(configs); seed++ {
		c := randomSweepCase(seed)
		rec := &MemRecorder{}
		cfg := c.cfg
		cfg.Cluster, cfg.Recorder = c.cluster(), rec
		if seed%3 == 0 {
			cfg.Execute = execFunc(func(j *Job, _ Allocation) (string, error) {
				if j.ID%5 == 0 {
					return "", errTestBoom
				}
				return "ok", nil
			})
		}
		s := New(cfg)
		var jobs []*Job
		for _, j := range c.jobs() {
			if s.Submit(j) == nil {
				jobs = append(jobs, j)
			}
		}
		for round := 1; round < sweepRoundCap && s.Step(); round++ {
			if seed%2 == 0 && round%13 == 0 {
				s.Cancel(jobs[round*7%len(jobs)].ID) // a terminal job refuses; that is fine
			}
		}
		rebuilt := map[int][]Segment{}
		for _, ev := range rec.Events() {
			if ev.Kind != EvSegmentEnd {
				continue
			}
			count := 0
			for _, r := range ev.Alloc {
				count += r.Count
			}
			alloc := Allocation{Ranges: ev.Alloc, Count: count, CrossesTrunk: cfg.Cluster.rangesCrossTrunk(ev.Alloc)}
			rebuilt[ev.Job] = append(rebuilt[ev.Job], Segment{Alloc: alloc, Start: ev.From, End: ev.To, Preempted: ev.Detail != "run"})
			ends[ev.Detail]++
		}
		for _, j := range jobs {
			if got, want := j.Segments(), rebuilt[j.ID]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s (%v) has segments\n  %+v\nthe event log says\n  %+v", c.name, j, j.State, got, want)
			}
			switch j.State {
			case Failed:
				failed++
			case Canceled:
				canceled++
			}
		}
	}
	for _, d := range []string{"run", "drain", "fault", "cancel", "bank"} {
		if ends[d] == 0 {
			t.Errorf("no segment ended in %q: the comparison is vacuous there", d)
		}
	}
	if failed == 0 || canceled == 0 {
		t.Errorf("%d failed and %d canceled jobs: a terminal state went unexercised", failed, canceled)
	}
	t.Logf("%d configurations: segment ends %v, %d failed, %d canceled jobs", configs, ends, failed, canceled)
}

// TestReportTimeline covers the Report.Timeline accessor: the per-job
// view is exactly the job's events in stream order, and a run without a
// recorder yields an empty timeline rather than a panic.
func TestReportTimeline(t *testing.T) {
	rec := &MemRecorder{}
	rep := sampleTraceRun(t, rec)
	if len(rep.Jobs) == 0 {
		t.Fatal("no jobs in sample replay")
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
// metrics attached allocates nothing. (The queue is pre-sorted by a
// warmup pass; the lazily-sorted queue only re-sorts after a mutation.)
func TestPassOnceZeroAllocNilRecorder(t *testing.T) {
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
