package batch

import (
	"testing"
	"time"
)

// TestTimeSliceSharesMachineRoundRobin pins the whole-timeline behavior
// of two equal gangs sharing one machine under a quantum: they
// alternate slices (checkpoint drain between turns), every suspension
// banks exactly one quantum of work, and the machine is never idle —
// the makespan is the total work plus the checkpoint/restore overhead
// and nothing else.
func TestTimeSliceSharesMachineRoundRobin(t *testing.T) {
	const quantum = 30 * time.Second
	ck, rs := fixedCosts(2*time.Second, time.Second)
	run := func(q time.Duration) (*Job, *Job, Report) {
		s := New(Config{Cluster: newTestCluster(8), Policy: FIFO,
			Quantum: q, CheckpointCost: ck, RestoreCost: rs})
		a := &Job{Name: "a", Nodes: 8, Est: 100 * time.Second}
		b := &Job{Name: "b", Nodes: 8, Est: 100 * time.Second}
		submitAll(t, s, []*Job{a, b})
		return a, b, s.Run()
	}

	a, b, rep := run(quantum)
	// a runs [0,30), drains [30,32); b runs [32,62), drains [62,64); a
	// resumes with its 1s restore riding ahead of the quantum, and so
	// on — each job is suspended three times and finishes its last 10s
	// of work run-to-completion.
	if a.Start != 0 || b.Start != 32*time.Second {
		t.Fatalf("starts %v/%v, want 0 and 32s (after a's first drain)", a.Start, b.Start)
	}
	if a.TimeSlices() != 3 || b.TimeSlices() != 3 {
		t.Fatalf("slice counts %d/%d, want 3 each", a.TimeSlices(), b.TimeSlices())
	}
	if a.Preemptions() != 0 || b.Preemptions() != 0 {
		t.Fatal("quantum suspensions were counted as priority preemptions")
	}
	as, bs := a.Segments(), b.Segments()
	if len(as) != 4 || len(bs) != 4 {
		t.Fatalf("segment counts %d/%d, want 4 each", len(as), len(bs))
	}
	if a.End != 207*time.Second || b.End != 218*time.Second {
		t.Fatalf("ends %v/%v, want 207s and 218s", a.End, b.End)
	}
	// Round-robin interleaving: the two jobs' segments alternate.
	for i := 0; i < 3; i++ {
		if as[i].End > bs[i].Start || bs[i].End > as[i+1].Start {
			t.Fatalf("segments do not alternate:\n  a %+v\n  b %+v", as, bs)
		}
		if !as[i].Preempted || !bs[i].Preempted {
			t.Fatalf("slice segments not flagged as suspended")
		}
	}
	// No virtual progress lost: node-holding time is exactly the true
	// work plus the charged checkpoint/restore overhead.
	for _, j := range []*Job{a, b} {
		if j.BusyTime() != j.Estimate()+j.CheckpointOverhead() {
			t.Fatalf("%s busy %v, want est %v + overhead %v",
				j, j.BusyTime(), j.Estimate(), j.CheckpointOverhead())
		}
	}
	if rep.SliceEvents != 6 || rep.Sliced != 2 {
		t.Fatalf("report slices %d/%d, want 6 suspensions over 2 jobs", rep.SliceEvents, rep.Sliced)
	}
	if rep.Makespan != 218*time.Second {
		t.Fatalf("makespan %v, want 218s (200s work + 18s overhead, zero idle)", rep.Makespan)
	}
	checkNoOverlap(t, rep.Jobs, 8)

	// Against run-to-completion FIFO the second job's wait halves
	// (100s -> 32s), the figure time-slicing exists to improve; the
	// price is the 18s of checkpoint/restore on the makespan.
	_, _, rtc := run(0)
	if rtc.SliceEvents != 0 || rtc.Makespan != 200*time.Second {
		t.Fatalf("run-to-completion baseline sliced %d / makespan %v", rtc.SliceEvents, rtc.Makespan)
	}
	if rep.AvgWait >= rtc.AvgWait {
		t.Fatalf("time-slicing did not cut the average wait: %v vs %v", rep.AvgWait, rtc.AvgWait)
	}
}

// TestTimeSliceShortJobJumpsLongGang is the shared-machine story: a
// short job arriving under a machine-spanning long gang waits only
// until the next quantum boundary (plus the drain), not the gang's full
// runtime — and with no waiter left, the long gang's later slices are
// extended in place free of charge.
func TestTimeSliceShortJobJumpsLongGang(t *testing.T) {
	ck, rs := fixedCosts(2*time.Second, time.Second)
	run := func(q time.Duration) (*Job, *Job, Report) {
		s := New(Config{Cluster: newTestCluster(8), Policy: Backfill,
			Quantum: q, CheckpointCost: ck, RestoreCost: rs})
		long := &Job{Name: "long", Nodes: 8, Est: 600 * time.Second}
		short := &Job{Name: "short", Nodes: 8, Est: 30 * time.Second, Submit: 45 * time.Second}
		submitAll(t, s, []*Job{long, short})
		a, b, rep := long, short, s.Run()
		return a, b, rep
	}

	long, short, rep := run(60 * time.Second)
	// The long gang yields at its 60s boundary, drains by 62s; the
	// short job runs [62,92); the long gang resumes and then extends
	// every later boundary in place (no waiter), finishing with exactly
	// one suspension charged.
	if short.Start != 62*time.Second {
		t.Fatalf("short job started %v, want 62s (next boundary + drain)", short.Start)
	}
	if long.TimeSlices() != 1 || rep.SliceEvents != 1 {
		t.Fatalf("long gang sliced %d times (%d events), want exactly 1 — later boundaries had no waiter",
			long.TimeSlices(), rep.SliceEvents)
	}
	if long.End != 633*time.Second {
		t.Fatalf("long gang finished %v, want 633s (600s work + 3s overhead + 30s displaced)", long.End)
	}
	checkNoOverlap(t, rep.Jobs, 8)

	_, shortRTC, _ := run(0)
	if shortRTC.Start != 600*time.Second {
		t.Fatalf("run-to-completion short start %v, want 600s", shortRTC.Start)
	}
	if short.Wait() >= shortRTC.Wait() {
		t.Fatalf("quantum did not cut the short job's wait: %v vs %v", short.Wait(), shortRTC.Wait())
	}
}

// TestTimeSliceYieldsToArrivalAtBoundary pins the order of one clock
// move: a waiter arriving at the very instant of a gang's quantum
// boundary enters the queue before the boundary is handled, so the gang
// yields to it there and not one quantum later.
func TestTimeSliceYieldsToArrivalAtBoundary(t *testing.T) {
	ck, rs := fixedCosts(2*time.Second, time.Second)
	s := New(Config{Cluster: newTestCluster(8), Policy: Backfill,
		Quantum: 30 * time.Second, CheckpointCost: ck, RestoreCost: rs})
	gang := &Job{Name: "gang", Nodes: 8, Est: 100 * time.Second}
	waiter := &Job{Name: "waiter", Nodes: 8, Priority: 1, Est: 10 * time.Second, Submit: 30 * time.Second}
	submitAll(t, s, []*Job{gang, waiter})
	s.Run()
	// The gang drains [30, 32) and the waiter starts as the drain ends.
	if waiter.Start != 32*time.Second || gang.TimeSlices() != 1 {
		t.Fatalf("waiter starts at %v after %d gang slices, want 32s after 1", waiter.Start, gang.TimeSlices())
	}
}

// TestTimeSliceNeverYieldsToLowerRank pins the anti-thrash guard: a
// gang is not suspended at a quantum boundary for a waiter it would
// immediately outrank again (lower priority), nor for one that cannot
// be placed on its nodes — either suspension would be a zero-progress
// checkpoint/restore cycle.
func TestTimeSliceNeverYieldsToLowerRank(t *testing.T) {
	ck, rs := fixedCosts(2*time.Second, time.Second)
	s := New(Config{Cluster: newTestCluster(8), Policy: Backfill,
		Quantum: 30 * time.Second, CheckpointCost: ck, RestoreCost: rs})
	high := &Job{Name: "high", Nodes: 8, Priority: 5, Est: 120 * time.Second}
	low := &Job{Name: "low", Nodes: 8, Priority: 0, Est: 30 * time.Second, Submit: 10 * time.Second}
	submitAll(t, s, []*Job{high, low})
	rep := s.Run()
	if high.TimeSlices() != 0 || rep.SliceEvents != 0 {
		t.Fatalf("high-priority gang yielded its quantum to a lower-priority waiter (%d slices)",
			high.TimeSlices())
	}
	if low.Start != 120*time.Second {
		t.Fatalf("low-priority job started %v, want 120s behind the high gang", low.Start)
	}
	checkNoOverlap(t, rep.Jobs, 8)
}

// TestTimeSliceSkipsFutileSuspension pins the futile-suspension guard:
// a gang whose remaining work would finish before its checkpoint drain
// does is extended through its quantum boundary instead of suspended —
// running the 1s tail frees the nodes sooner than a 5s drain plus a
// later restore ever could.
func TestTimeSliceSkipsFutileSuspension(t *testing.T) {
	ck, rs := fixedCosts(5*time.Second, 3*time.Second)
	s := New(Config{Cluster: newTestCluster(8), Policy: Backfill,
		Quantum: 300 * time.Second, CheckpointCost: ck, RestoreCost: rs})
	almost := &Job{Name: "almost", Nodes: 8, Est: 301 * time.Second}
	waiter := &Job{Name: "waiter", Nodes: 8, Est: 30 * time.Second, Submit: 10 * time.Second}
	submitAll(t, s, []*Job{almost, waiter})
	rep := s.Run()
	if almost.TimeSlices() != 0 || rep.SliceEvents != 0 {
		t.Fatalf("gang with a 1s tail past the boundary was checkpointed (%d slices)", almost.TimeSlices())
	}
	if waiter.Start != 301*time.Second {
		t.Fatalf("waiter started %v, want 301s (the gang's natural completion)", waiter.Start)
	}
	checkNoOverlap(t, rep.Jobs, 8)
}

// TestTimeSliceIgnoresPolicyBlockedWaiter pins the capacity-vs-policy
// distinction in the yield decision: under FIFO a small job behind a
// blocked wide head cannot start no matter what frees up, so a gang
// must not checkpoint itself for it — and a head that still would not
// fit on the gang's freed nodes is no reason to yield either.
func TestTimeSliceIgnoresPolicyBlockedWaiter(t *testing.T) {
	ck, rs := fixedCosts(2*time.Second, time.Second)
	s := New(Config{Cluster: newTestCluster(32), Policy: FIFO,
		Quantum: 60 * time.Second, CheckpointCost: ck, RestoreCost: rs})
	gang := &Job{Name: "gang", Nodes: 12, Est: 600 * time.Second}
	other := &Job{Name: "other", Nodes: 10, Est: 600 * time.Second}
	// 10 nodes stay free: the head needs 30 (does not fit even with the
	// gang's 12 freed), the small job fits right now but FIFO holds it
	// behind the head.
	head := &Job{Name: "head", Nodes: 30, Est: 30 * time.Second, Submit: 5 * time.Second}
	small := &Job{Name: "small", Nodes: 2, Est: 10 * time.Second, Submit: 5 * time.Second}
	submitAll(t, s, []*Job{gang, other, head, small})
	rep := s.Run()
	if rep.SliceEvents != 0 {
		t.Fatalf("%d suspensions for waiters the drain could never start", rep.SliceEvents)
	}
	if head.Start != 600*time.Second {
		t.Fatalf("head started %v, want 600s (both long gangs' completion)", head.Start)
	}
	checkNoOverlap(t, rep.Jobs, 32)
}

// TestMultiWavePreemption pins overlapping checkpoint waves: a second
// blocked high-priority job triggers its own wave while the first wave
// is still draining, its drain queues behind the in-flight one on the
// shared store link, and both preemptors start as their respective
// victims' nodes free — the second no longer waits for the first wave
// to settle before even being considered.
func TestMultiWavePreemption(t *testing.T) {
	ck, rs := fixedCosts(10*time.Second, time.Second)
	s := New(Config{Cluster: newTestCluster(16), Policy: Backfill,
		Preempt: true, CheckpointCost: ck, RestoreCost: rs})
	v1 := &Job{Name: "v1", Nodes: 8, Priority: 1, Est: 500 * time.Second}
	v2 := &Job{Name: "v2", Nodes: 8, Priority: 2, Est: 500 * time.Second}
	h1 := &Job{Name: "h1", Nodes: 8, Priority: 5, Est: 50 * time.Second, Submit: 10 * time.Second}
	h2 := &Job{Name: "h2", Nodes: 8, Priority: 9, Est: 50 * time.Second, Submit: 12 * time.Second}
	submitAll(t, s, []*Job{v1, v2, h1, h2})
	rep := s.Run()
	// Wave 1 (for h1) drains v1 over [10,20). Wave 2 (for h2) is
	// triggered at h2's arrival — mid-drain of wave 1 — and v2's
	// checkpoint queues behind v1's on the store link: [20,30). h2
	// outranks h1, so it takes the first freed gang at 20s; h1 follows
	// at 30s when wave 2 settles.
	if v1.Preemptions() != 1 || v2.Preemptions() != 1 {
		t.Fatalf("victims preempted %d/%d times, want one wave each", v1.Preemptions(), v2.Preemptions())
	}
	if h2.Start != 20*time.Second {
		t.Fatalf("h2 started %v, want 20s (first wave's drain end)", h2.Start)
	}
	if h1.Start != 30*time.Second {
		t.Fatalf("h1 started %v, want 30s (second wave queued behind the first), not v2's 500s completion", h1.Start)
	}
	if rep.PreemptEvents != 2 {
		t.Fatalf("%d preempt events, want 2 overlapping waves", rep.PreemptEvents)
	}
	if rep.DrainWait != 8*time.Second {
		t.Fatalf("drain wait %v, want 8s (wave 2 queued from 12s to 20s)", rep.DrainWait)
	}
	for _, j := range rep.Jobs {
		if j.State != Done {
			t.Fatalf("%s ended %v", j, j.State)
		}
	}
	checkNoOverlap(t, rep.Jobs, 16)
}

// TestContendedDrainMatchesSerializedSum is the pricing-bug regression:
// three gangs checkpointing at the same virtual instant share the store
// link, so the wave settles at the sum of the individual drain times —
// under the old independent pricing all three "finished" after one
// drain time, crediting the preemptor with bandwidth that does not
// exist.
func TestContendedDrainMatchesSerializedSum(t *testing.T) {
	const drain = 4 * time.Second
	ck, rs := fixedCosts(drain, time.Second)
	s := New(Config{Cluster: newTestCluster(24), Policy: Backfill,
		Preempt: true, CheckpointCost: ck, RestoreCost: rs})
	var victims []*Job
	for i := 0; i < 3; i++ {
		victims = append(victims, &Job{Name: "victim", Nodes: 8, Priority: 0, Est: 500 * time.Second})
	}
	urgent := &Job{Name: "urgent", Nodes: 24, Priority: 9,
		Est: 50 * time.Second, Submit: 10 * time.Second}
	submitAll(t, s, append(victims, urgent))
	rep := s.Run()
	// Serialized: wave start + 3 drains, exactly. Independent pricing
	// would have started the urgent job at 14s.
	if want := 10*time.Second + 3*drain; urgent.Start != want {
		t.Fatalf("urgent started %v, want %v (sum of serialized drains)", urgent.Start, want)
	}
	if rep.DrainWait != 3*drain {
		t.Fatalf("drain wait %v, want %v (second waits one drain, third two)", rep.DrainWait, 3*drain)
	}
	checkNoOverlap(t, rep.Jobs, 24)
}

// TestSampleTraceTimesliceShortWait is the acceptance regression on the
// bundled trace: a 300s quantum under EASY cuts the mean wait of short
// jobs (estimate at or below the median) versus run-to-completion EASY
// — the clusterctl "-trace examples/traces/sample.swf -policy all
// -quantum 300s" comparison.
func TestSampleTraceTimesliceShortWait(t *testing.T) {
	recs, err := LoadTrace("../../examples/traces/sample.swf")
	if err != nil {
		t.Fatal(err)
	}
	run := func(q time.Duration) Report {
		jobs, actual := TraceJobs(recs, 32)
		s := New(Config{Cluster: newTestCluster(32), Policy: Backfill,
			Actual: actual, TrunkSlowdown: 1.1, Quantum: q})
		submitAll(t, s, jobs)
		return s.Run()
	}
	rtc := run(0)
	sliced := run(300 * time.Second)
	cut := rtc.MedianEstimate()
	if sliced.SliceEvents == 0 {
		t.Fatal("sample trace never sliced under a 300s quantum")
	}
	if got, want := sliced.AvgWaitUnder(cut), rtc.AvgWaitUnder(cut); got >= want {
		t.Fatalf("time-sliced short-job wait %v not below run-to-completion EASY %v (cut %v)",
			got, want, cut)
	}
	checkNoOverlap(t, sliced.Jobs, 32)
}

// TestTimeSlicedWorkloadSegmentedExecution extends the checkpoint
// regression tests to the round-robin path: two real workloads sharing
// a gang under a quantum each run in several genuinely checkpointed
// segments, and the deterministic kinds (LBM, PDE) reproduce the
// uninterrupted result bit for bit after K suspensions. CG loses its
// Krylov space at each restart, so only convergence is asserted.
func TestTimeSlicedWorkloadSegmentedExecution(t *testing.T) {
	for _, kind := range []JobKind{KindLBM, KindPDE, KindCG} {
		run := func(q time.Duration) (*Job, *Job, Report) {
			ck, rs := fixedCosts(2*time.Second, time.Second)
			s := New(Config{Cluster: newTestCluster(2), Policy: FIFO,
				Quantum: q, CheckpointCost: ck, RestoreCost: rs,
				Execute: SimExecutor{}})
			a := &Job{Name: "a", Kind: kind, Nodes: 2, Est: 100 * time.Second}
			b := &Job{Name: "b", Kind: kind, Nodes: 2, Est: 100 * time.Second}
			switch kind {
			case KindLBM:
				a.Problem, a.Steps = [3]int{8, 8, 8}, 10
			case KindPDE:
				a.Problem, a.Steps = [3]int{12, 12, 4}, 12
			case KindCG:
				a.Problem, a.Steps = [3]int{16, 16, 1}, 400
			}
			b.Problem, b.Steps = a.Problem, a.Steps
			submitAll(t, s, []*Job{a, b})
			rep := s.Run()
			return a, b, rep
		}
		straightA, straightB, _ := run(0)
		a, b, rep := run(20 * time.Second)
		if a.TimeSlices() < 2 || b.TimeSlices() < 2 {
			t.Fatalf("%v: jobs sliced %d/%d times, want K >= 2 suspensions each",
				kind, a.TimeSlices(), b.TimeSlices())
		}
		if rep.Failed != 0 {
			t.Fatalf("%v: %d failed jobs in the sliced schedule", kind, rep.Failed)
		}
		for _, j := range []*Job{a, b} {
			if j.State != Done {
				t.Fatalf("%v: sliced %s ended %v: %v", kind, j.Name, j.State, j.Err)
			}
		}
		if kind != KindCG {
			if a.Detail != straightA.Detail || b.Detail != straightB.Detail {
				t.Fatalf("%v: segmented round-robin run diverged from uninterrupted run:\n  %s\n  %s",
					kind, a.Detail, straightA.Detail)
			}
		}
		checkNoOverlap(t, rep.Jobs, 2)
	}
}
