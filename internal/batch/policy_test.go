package batch

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, pol := range Policies() {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Fatalf("round trip %v: got %v, err %v", pol, got, err)
		}
	}
	if got, err := ParsePolicy("backfill"); err != nil || got != Backfill {
		t.Fatalf("legacy alias backfill: got %v, err %v", got, err)
	}
	if _, err := ParsePolicy("mystery"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestQueueOrderDeterministicTieBreak pins the tie-break chain: equal
// priority and equal arrival order by job ID (submission order), so
// policy comparisons replay identically no matter how the queue slice
// was permuted by pushes and removes.
func TestQueueOrderDeterministicTieBreak(t *testing.T) {
	s := New(Config{Cluster: newTestCluster(2), Policy: FIFO})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, &Job{Name: fmt.Sprintf("tie-%d", i), Nodes: 2, Priority: 3, Est: time.Second})
	}
	// Same priority, same (zero) arrival: starts must follow IDs.
	submitAll(t, s, jobs)
	rep := s.Run()
	for i, j := range rep.Jobs {
		if j.ID != i+1 || j.Start != time.Duration(i)*time.Second {
			t.Fatalf("job %d (ID %d) started at %v, want ID order", i, j.ID, j.Start)
		}
	}
	// Differing arrivals at equal priority: earlier arrival first even
	// when submitted later in the batch.
	s2 := New(Config{Cluster: newTestCluster(2), Policy: FIFO})
	late := &Job{Name: "late", Nodes: 2, Priority: 3, Est: time.Second, Submit: 10 * time.Second}
	early := &Job{Name: "early", Nodes: 2, Priority: 3, Est: time.Second, Submit: 5 * time.Second}
	submitAll(t, s2, []*Job{late, early})
	s2.Run()
	if early.Start != 5*time.Second || late.Start != 10*time.Second {
		t.Fatalf("arrival tie-break broken: early %v, late %v", early.Start, late.Start)
	}
}

// runMix drains one synthetic mix under a policy and returns the
// report.
func runMix(t *testing.T, pol Policy, seed int64, n int, preempt bool) Report {
	t.Helper()
	return runMixSlowdown(t, pol, seed, n, preempt, 1.5, nil)
}

func runMixSlowdown(t *testing.T, pol Policy, seed int64, n int, preempt bool, slowdown float64, rec Recorder) Report {
	t.Helper()
	s := New(Config{
		Cluster:       newTestCluster(32),
		Policy:        pol,
		TrunkSlowdown: slowdown,
		Preempt:       preempt,
		Recorder:      rec,
	})
	submitAll(t, s, SyntheticMix(seed, n, 32))
	rep := s.Run()
	if len(rep.Jobs) != n {
		t.Fatalf("%v seed %d: finished %d of %d", pol, seed, len(rep.Jobs), n)
	}
	return rep
}

// backfillBounds reads from a recorded stream the reservation each job's
// last bounded backfill was admitted under: the To of its EvDispatch.
func backfillBounds(events []Event) map[int]time.Duration {
	bound := make(map[int]time.Duration)
	for _, ev := range events {
		if ev.Kind == EvDispatch && ev.To > 0 {
			bound[ev.Job] = ev.To
		}
	}
	return bound
}

// TestEventLoopDeterminism guards the preemption refactor: the same mix
// under the same policy twice must produce identical makespans, waits,
// and per-node utilization — with and without preemption in play.
func TestEventLoopDeterminism(t *testing.T) {
	for _, pol := range Policies() {
		for _, preempt := range []bool{false, true} {
			a := runMix(t, pol, 21, 250, preempt)
			b := runMix(t, pol, 21, 250, preempt)
			if a.Makespan != b.Makespan {
				t.Fatalf("%v preempt=%v: makespan %v vs %v", pol, preempt, a.Makespan, b.Makespan)
			}
			if a.AvgWait != b.AvgWait || a.MaxWait != b.MaxWait {
				t.Fatalf("%v preempt=%v: waits diverged (%v/%v vs %v/%v)",
					pol, preempt, a.AvgWait, a.MaxWait, b.AvgWait, b.MaxWait)
			}
			for i := range a.NodeBusy {
				if a.NodeBusy[i] != b.NodeBusy[i] {
					t.Fatalf("%v preempt=%v: node %d busy %v vs %v",
						pol, preempt, i, a.NodeBusy[i], b.NodeBusy[i])
				}
			}
			byID := make(map[int]*Job, len(b.Jobs))
			for _, j := range b.Jobs {
				byID[j.ID] = j
			}
			for _, j := range a.Jobs {
				k := byID[j.ID]
				if k == nil || j.Start != k.Start || j.End != k.End {
					t.Fatalf("%v preempt=%v: job %d lifecycle diverged", pol, preempt, j.ID)
				}
			}
		}
	}
}

// TestShadowInvariantAllPolicies property-tests the reservation
// guarantee under all four disciplines over random mixes: an
// EASY/fair-share backfill never outlives the shadow recorded at its
// grant (checked under trunk stretch — the per-candidate check makes it
// exact), a conservative start never breaks an earlier promise (checked
// with stretch off: re-planning against placement-dependent stretch can
// shift an individual slot, see conservative.go), and FIFO never
// backfills at all. Runtimes equal estimates here (no Actual hook),
// which is exactly the regime the guarantees are made in.
func TestShadowInvariantAllPolicies(t *testing.T) {
	for _, pol := range Policies() {
		for seed := int64(1); seed <= 5; seed++ {
			rec := &MemRecorder{}
			rep := runMixSlowdown(t, pol, seed, 250, false, 1.5, rec)
			bound := backfillBounds(rec.Events())
			for _, j := range rep.Jobs {
				switch pol {
				case FIFO:
					if j.Backfilled() {
						t.Fatalf("fifo seed %d: %s backfilled", seed, j)
					}
				case Backfill, FairShare:
					if b, ok := bound[j.ID]; j.Backfilled() && (!ok || j.End > b) {
						t.Fatalf("%v seed %d: backfilled %s ends %v past its shadow %v (recorded %v)",
							pol, seed, j, j.End, b, ok)
					}
				}
			}
			checkNoOverlap(t, rep.Jobs, 32)
		}
	}
	// Conservative promises, in the exact regime (reserved durations
	// equal realized ones).
	for seed := int64(1); seed <= 5; seed++ {
		rep := runMixSlowdown(t, Conservative, seed, 250, false, 1, nil)
		for _, j := range rep.Jobs {
			if p, ok := j.Promise(); ok && j.Start > p {
				t.Fatalf("conservative seed %d: %s started %v past its promised %v",
					seed, j, j.Start, p)
			}
		}
		checkNoOverlap(t, rep.Jobs, 32)
	}
}

// TestConservativeNeverDelaysEarlierJobs is the defining difference
// from EASY: under EASY only the head is protected, so a deep queue of
// wide jobs can see later reservations starve; under conservative every
// queued job's start is bounded by the promise it was given.
func TestConservativeNeverDelaysEarlierJobs(t *testing.T) {
	mk := func() []*Job {
		jobs := []*Job{
			{Name: "hog", Nodes: 28, Priority: 9, Est: 100 * time.Second},
			{Name: "wide-1", Nodes: 24, Priority: 8, Est: 100 * time.Second},
			{Name: "wide-2", Nodes: 24, Priority: 7, Est: 100 * time.Second},
		}
		// A stream of 4-node fillers that would fit the idle edge
		// forever: EASY only protects wide-1, conservative also
		// protects wide-2.
		for i := 0; i < 40; i++ {
			jobs = append(jobs, &Job{Name: fmt.Sprintf("filler-%d", i),
				Nodes: 4, Priority: 0, Est: 50 * time.Second})
		}
		return jobs
	}
	run := func(pol Policy) ([]*Job, Report) {
		s := New(Config{Cluster: newTestCluster(32), Policy: pol})
		jobs := mk()
		submitAll(t, s, jobs)
		return jobs, s.Run()
	}
	jc, repC := run(Conservative)
	wide2 := jc[2]
	if p, ok := wide2.Promise(); !ok || wide2.Start > p {
		t.Fatalf("conservative: wide-2 started %v, promised %v (ok=%v)", wide2.Start, p, ok)
	}
	je, _ := run(Backfill)
	if jc[2].Start > je[2].Start {
		t.Fatalf("conservative wide-2 start %v worse than EASY %v", jc[2].Start, je[2].Start)
	}
	if repC.Backfilled == 0 {
		t.Fatal("conservative never backfilled the fillers")
	}
	checkNoOverlap(t, repC.Jobs, 32)
}

// TestFairShareReordersByDecayedUsage gives one user a long head start
// and asserts the fair-share queue lets the light user's jobs jump the
// heavy user's backlog, cutting the light user's average wait versus
// EASY — while all jobs still finish.
func TestFairShareReordersByDecayedUsage(t *testing.T) {
	mk := func() (heavy, light []*Job, all []*Job) {
		for i := 0; i < 12; i++ {
			j := &Job{Name: fmt.Sprintf("heavy-%d", i), User: "hog",
				Nodes: 16, Priority: 2, Est: 60 * time.Second}
			heavy = append(heavy, j)
			all = append(all, j)
		}
		for i := 0; i < 4; i++ {
			j := &Job{Name: fmt.Sprintf("light-%d", i), User: "fair",
				Nodes: 16, Priority: 2, Est: 60 * time.Second, Submit: 30 * time.Second}
			light = append(light, j)
			all = append(all, j)
		}
		return
	}
	avgWait := func(jobs []*Job) time.Duration {
		var sum time.Duration
		for _, j := range jobs {
			sum += j.Wait()
		}
		return sum / time.Duration(len(jobs))
	}
	run := func(pol Policy) (time.Duration, time.Duration, Report) {
		s := New(Config{Cluster: newTestCluster(32), Policy: pol})
		heavy, light, all := mk()
		submitAll(t, s, all)
		rep := s.Run()
		return avgWait(heavy), avgWait(light), rep
	}
	_, lightEasy, _ := run(Backfill)
	heavyFS, lightFS, rep := run(FairShare)
	if lightFS >= lightEasy {
		t.Fatalf("fair-share did not help the light user: %v vs EASY %v", lightFS, lightEasy)
	}
	if lightFS >= heavyFS {
		t.Fatalf("light user still waits longer than the hog: %v vs %v", lightFS, heavyFS)
	}
	if len(rep.Jobs) != 16 || rep.Failed != 0 {
		t.Fatalf("fair-share run finished %d jobs, %d failed", len(rep.Jobs), rep.Failed)
	}
	if rep.UserNodeTime["hog"] <= rep.UserNodeTime["fair"] {
		t.Fatalf("usage accounting inverted: hog %v, fair %v",
			rep.UserNodeTime["hog"], rep.UserNodeTime["fair"])
	}
	checkNoOverlap(t, rep.Jobs, 32)
}

// TestUsageDecayHalfLife pins the decay arithmetic: after exactly one
// half-life of idle virtual time, a user's account is worth half.
func TestUsageDecayHalfLife(t *testing.T) {
	s := New(Config{Cluster: newTestCluster(2), Policy: FairShare, FairShareHalfLife: 10 * time.Minute})
	s.chargeUsage("u", 100*time.Second)
	if got := s.usageOf("u"); math.Abs(got-100) > 1e-9 {
		t.Fatalf("fresh usage %v, want 100 node-seconds", got)
	}
	s.now = 10 * time.Minute
	if got := s.usageOf("u"); math.Abs(got-50) > 1e-9 {
		t.Fatalf("decayed usage %v, want 50 after one half-life", got)
	}
	if got := s.usageOf("stranger"); got != 0 {
		t.Fatalf("unknown user usage %v, want 0", got)
	}
}

// TestConservativeBeatsFIFOOnSkewedWorkload sanity-checks that the new
// discipline still backfills (it is conservative, not FIFO): on the
// canonical skewed shape it must beat FIFO's makespan.
func TestConservativeBeatsFIFOOnSkewedWorkload(t *testing.T) {
	run := func(pol Policy) Report {
		s := New(Config{Cluster: newTestCluster(32), Policy: pol})
		submitAll(t, s, skewedWorkload())
		return s.Run()
	}
	fifo, cons := run(FIFO), run(Conservative)
	if cons.Makespan >= fifo.Makespan {
		t.Fatalf("conservative makespan %v not below FIFO %v", cons.Makespan, fifo.Makespan)
	}
	if cons.Backfilled == 0 {
		t.Fatal("conservative never backfilled")
	}
	checkNoOverlap(t, cons.Jobs, 32)
}
