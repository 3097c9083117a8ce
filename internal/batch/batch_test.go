package batch

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"strings"
	"testing"
	"time"

	"gpucluster/internal/netsim"
	"gpucluster/internal/sched"
)

func newTestCluster(n int) *Cluster {
	return NewCluster(n, netsim.GigabitSwitch(n))
}

// checkNoOverlap reconstructs per-node occupancy from completed jobs'
// run segments (preempted jobs hold several gangs over disjoint
// intervals) and fails on any instant where two gangs share a node.
// occupy commits the named window [first, first+k) on c: how a test
// lays out an occupancy without going through the placement ranking.
func occupy(c *Cluster, first, k int) Allocation {
	return c.commit(candidate{single: NodeRange{First: first, Count: k}, crosses: c.windowCrossesTrunk(first, k)})
}

func checkNoOverlap(t *testing.T, jobs []*Job, nodes int) {
	t.Helper()
	type span struct{ start, end time.Duration }
	perNode := make([][]span, nodes)
	for _, j := range jobs {
		segments := j.Segments()
		if len(segments) == 0 {
			t.Fatalf("%s finished with no run segments", j)
		}
		for _, seg := range segments {
			for _, i := range seg.Alloc.Ranges.Nodes() {
				perNode[i] = append(perNode[i], span{seg.Start, seg.End})
			}
		}
	}
	for n, spans := range perNode {
		sort.Slice(spans, func(i, k int) bool { return spans[i].start < spans[k].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				t.Fatalf("node %d double-booked: [%v,%v) overlaps [%v,%v)",
					n, spans[i-1].start, spans[i-1].end, spans[i].start, spans[i].end)
			}
		}
	}
}

func submitAll(t *testing.T, s *Scheduler, jobs []*Job) {
	t.Helper()
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			t.Fatalf("submit %s: %v", j, err)
		}
	}
}

func TestSchedule1000MixedJobs(t *testing.T) {
	const nodes = 32
	jobs := SyntheticMix(7, 1200, nodes)
	kinds := map[JobKind]int{}
	for _, j := range jobs {
		kinds[j.Kind]++
	}
	for k := JobKind(0); k < numKinds; k++ {
		if kinds[k] == 0 {
			t.Fatalf("mix has no %v jobs", k)
		}
	}
	for _, pol := range []Policy{FIFO, Backfill} {
		s := New(Config{Cluster: newTestCluster(nodes), Policy: pol})
		submitAll(t, s, SyntheticMix(7, 1200, nodes))
		rep := s.Run()
		if len(rep.Jobs) != 1200 {
			t.Fatalf("%v: finished %d of 1200 jobs", pol, len(rep.Jobs))
		}
		for _, j := range rep.Jobs {
			if j.State != Done {
				t.Fatalf("%v: %s ended %v (err %v)", pol, j, j.State, j.Err)
			}
			if j.Runtime() <= 0 || j.Start < j.Submit {
				t.Fatalf("%v: %s has bad lifecycle times %v/%v/%v", pol, j, j.Submit, j.Start, j.End)
			}
		}
		checkNoOverlap(t, rep.Jobs, nodes)
		if rep.Utilization <= 0 || rep.Utilization > 1 {
			t.Fatalf("%v: utilization %.3f out of range", pol, rep.Utilization)
		}
		if rep.Makespan <= 0 {
			t.Fatalf("%v: zero makespan", pol)
		}
		if pol == Backfill && rep.Backfilled == 0 {
			t.Error("backfill policy never backfilled on the skewed mix")
		}
	}
}

// skewedWorkload builds the canonical backfill-winning shape: a wide
// blocker pinned behind a 20-node job, then a stream of narrow short
// jobs that FIFO must hold back.
func skewedWorkload() []*Job {
	jobs := []*Job{
		{Name: "wide-A", Kind: KindLBM, Nodes: 20, Est: 100 * time.Second},
		{Name: "wide-B", Kind: KindLBM, Nodes: 32, Est: 100 * time.Second},
	}
	for i := 0; i < 50; i++ {
		jobs = append(jobs, &Job{Name: "narrow", Kind: KindCG, Nodes: 2, Est: 10 * time.Second})
	}
	return jobs
}

func TestBackfillBeatsFIFOOnSkewedWorkload(t *testing.T) {
	run := func(pol Policy) Report {
		s := New(Config{Cluster: newTestCluster(32), Policy: pol})
		submitAll(t, s, skewedWorkload())
		return s.Run()
	}
	fifo := run(FIFO)
	back := run(Backfill)
	if back.Makespan >= fifo.Makespan {
		t.Fatalf("backfill makespan %v not below FIFO %v", back.Makespan, fifo.Makespan)
	}
	if back.Backfilled == 0 {
		t.Fatal("no jobs backfilled")
	}
	if back.Utilization <= fifo.Utilization {
		t.Errorf("backfill utilization %.3f not above FIFO %.3f", back.Utilization, fifo.Utilization)
	}
	// EASY guarantee: the blocked wide job must not start later than
	// under FIFO, because every backfilled job drains before the shadow.
	headStart := func(rep Report) time.Duration {
		for _, j := range rep.Jobs {
			if j.Name == "wide-B" {
				return j.Start
			}
		}
		t.Fatal("wide-B not found")
		return 0
	}
	if hb, hf := headStart(back), headStart(fifo); hb > hf {
		t.Fatalf("backfill delayed the reserved head: %v > %v", hb, hf)
	}
	checkNoOverlap(t, back.Jobs, 32)
}

func TestFIFOHeadOfLineBlocking(t *testing.T) {
	s := New(Config{Cluster: newTestCluster(4), Policy: FIFO})
	submitAll(t, s, []*Job{
		{Name: "running", Nodes: 3, Est: 60 * time.Second},
		{Name: "blocked-wide", Nodes: 4, Est: 10 * time.Second},
		{Name: "fits-now", Nodes: 1, Est: 5 * time.Second},
	})
	rep := s.Run()
	var fits *Job
	for _, j := range rep.Jobs {
		if j.Name == "fits-now" {
			fits = j
		}
	}
	// Under FIFO the 1-node job waits behind the blocked 4-node job even
	// though a node is free the whole time.
	if fits.Start < 60*time.Second {
		t.Fatalf("FIFO let a job jump the blocked head at %v", fits.Start)
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	s := New(Config{Cluster: newTestCluster(2), Policy: FIFO})
	submitAll(t, s, []*Job{
		{Name: "low", Nodes: 2, Priority: 0, Est: 10 * time.Second},
		{Name: "high", Nodes: 2, Priority: 9, Est: 10 * time.Second},
	})
	rep := s.Run()
	if rep.Jobs[0].Name != "high" {
		t.Fatalf("completion order %q, want high first", rep.Jobs[0].Name)
	}
	if rep.Jobs[0].Start != 0 || rep.Jobs[1].Start != 10*time.Second {
		t.Fatalf("starts %v, %v", rep.Jobs[0].Start, rep.Jobs[1].Start)
	}
}

func TestFutureArrivalWaitsAndClockAdvances(t *testing.T) {
	s := New(Config{Cluster: newTestCluster(2), Policy: Backfill})
	submitAll(t, s, []*Job{
		{Name: "later", Nodes: 1, Est: 5 * time.Second, Submit: 30 * time.Second},
	})
	rep := s.Run()
	j := rep.Jobs[0]
	if j.Start != 30*time.Second {
		t.Fatalf("job started at %v, want its arrival time 30s", j.Start)
	}
	if j.Wait() != 0 {
		t.Fatalf("wait %v, want 0 on an idle machine", j.Wait())
	}
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{Cluster: newTestCluster(4), Policy: FIFO})
	if err := s.Submit(&Job{Nodes: 5}); err == nil {
		t.Error("oversized gang accepted")
	}
	if err := s.Submit(&Job{Nodes: 0}); err == nil {
		t.Error("zero-node job accepted")
	}
	if err := s.Submit(&Job{Nodes: 1, Kind: KindLBM, Problem: [3]int{1024, 1024, 1024}}); err == nil {
		t.Error("job exceeding node memory accepted")
	}
}

func TestContiguousAllocationAndTrunk(t *testing.T) {
	c := NewCluster(32, netsim.GigabitSwitch(32))
	if c.Spec(0).Group != 0 || c.Spec(31).Group != 1 {
		t.Fatalf("interconnect groups %d/%d, want 0/1 around the 24-port boundary",
			c.Spec(0).Group, c.Spec(31).Group)
	}
	a := occupy(c, 0, 20)
	if !a.Contiguous() || a.Ranges[0] != (NodeRange{First: 0, Count: 20}) || a.Count != 20 {
		t.Fatalf("first allocation %+v", a)
	}
	if a.Grid() != sched.Arrange3D(20) || a.Grid().Size() != 20 {
		t.Fatalf("gang grid %v does not map 20 nodes", a.Grid())
	}
	if got, none := a.String(), (Allocation{}).String(); got != "nodes [0,20) as 5x2x2" || none != "nodes  as 0x0x0" {
		t.Fatalf("allocations render as %q and %q", got, none)
	}
	if a.CrossesTrunk {
		t.Error("nodes [0,20) flagged as crossing the 24-port trunk")
	}
	if b := occupy(c, 20, 10); !b.CrossesTrunk {
		t.Error("nodes [20,30) not flagged as crossing the trunk")
	}
	if cands := c.candidates(4, 0); len(cands) != 0 {
		t.Errorf("offered %v for 4 nodes with only 2 free", cands)
	}
	c.Release(a, time.Second)
	if cands := c.candidates(4, 0); len(cands) == 0 || cands[0].single.First != 0 {
		t.Fatalf("after release, candidates %+v, want the window at 0 first", cands)
	}
}

// TestBackfillRespectsTrunkStretchedReservation pins the EASY guarantee
// against the scheduler's own runtime multiplier: a candidate whose raw
// estimate fits before the shadow but whose trunk-crossing allocation
// stretches past it must be turned away, not allowed to delay the
// reserved head.
func TestBackfillRespectsTrunkStretchedReservation(t *testing.T) {
	s := New(Config{Cluster: newTestCluster(32), Policy: Backfill, TrunkSlowdown: 2})
	base := &Job{Name: "base", Nodes: 20, Est: 100 * time.Second, Priority: 9}
	head := &Job{Name: "head", Nodes: 32, Est: 100 * time.Second, Priority: 5}
	// 60s estimate passes the raw shadow check (0+60 <= 100) but its
	// only possible range [20,30) crosses the trunk: stretched to 120s.
	cand := &Job{Name: "candidate", Nodes: 10, Est: 60 * time.Second, Priority: 0}
	submitAll(t, s, []*Job{base, head, cand})
	rep := s.Run()
	if head.Start != 100*time.Second {
		t.Fatalf("reserved head started at %v, want exactly its 100s shadow", head.Start)
	}
	if cand.Start < head.Start {
		t.Fatalf("trunk-stretched candidate backfilled at %v ahead of the reservation", cand.Start)
	}
	checkNoOverlap(t, rep.Jobs, 32)
}

func TestTrunkSlowdownStretchesRuntime(t *testing.T) {
	run := func(slow float64) time.Duration {
		s := New(Config{Cluster: newTestCluster(32), Policy: FIFO, TrunkSlowdown: slow})
		submitAll(t, s, []*Job{{Name: "crossing", Nodes: 32, Est: 100 * time.Second}})
		return s.Run().Jobs[0].Runtime()
	}
	if base, slowed := run(1), run(1.5); slowed != base*3/2 {
		t.Fatalf("trunk slowdown runtime %v, want 1.5 * %v", slowed, base)
	}
}

func TestEstimatorShapes(t *testing.T) {
	e := NewPerfEstimator()
	for kind := JobKind(0); kind < numKinds; kind++ {
		for _, nodes := range []int{1, 2, 7, 32} {
			j := &Job{Kind: kind, Nodes: nodes, Problem: defaultProblem(kind), Steps: 10}
			d := e.Estimate(j)
			if d <= 0 {
				t.Fatalf("estimate(%v, %d nodes) = %v", kind, nodes, d)
			}
			j2 := *j
			j2.Steps = 20
			if d2 := e.Estimate(&j2); d2 <= d {
				t.Fatalf("estimate not monotonic in steps: %v vs %v", d, d2)
			}
		}
	}
}

// TestSubmitRefusesOverflowingSteps: a step count whose model estimate
// does not fit a Duration is refused at Submit, for every kind, rather
// than wrapped and clamped to a millisecond; the largest count that fits
// is accepted at exactly steps × the one-step estimate.
func TestSubmitRefusesOverflowingSteps(t *testing.T) {
	e := NewPerfEstimator()
	for kind := JobKind(0); kind < numKinds; kind++ {
		per := e.Estimate(&Job{Kind: kind, Nodes: 2, Problem: defaultProblem(kind), Steps: 1})
		fits := int(Forever / per)
		s := New(Config{Cluster: newTestCluster(4)})
		if err := s.Submit(&Job{Kind: kind, Nodes: 2, Steps: fits + 1}); err == nil {
			t.Fatalf("%v: %d steps of %v accepted", kind, fits+1, per)
		}
		j := &Job{Kind: kind, Nodes: 2, Steps: fits}
		if err := s.Submit(j); err != nil || j.Estimate() != time.Duration(fits)*per {
			t.Fatalf("%v: %d steps of %v: %v, estimate %v", kind, fits, per, err, j.Estimate())
		}
	}
}

// TestEstimateFingerprint pins every runtime estimate of a 2000-job mix on
// the 10,000-node machine (gangs up to the full machine, all three
// kinds) as one hash, recorded with perfmodel.netTime still walking the
// built schedule through netsim. Estimates feed every makespan and
// golden in the tree; a faster model must reproduce them to the
// nanosecond.
func TestEstimateFingerprint(t *testing.T) {
	e := NewPerfEstimator()
	h := fnv.New64a()
	var buf [8]byte
	for _, j := range SyntheticMix(1, 2000, 10000) {
		binary.LittleEndian.PutUint64(buf[:], uint64(e.Estimate(j)))
		h.Write(buf[:])
	}
	if got, want := h.Sum64(), uint64(0xca3065dd6c79240c); got != want {
		t.Fatalf("estimate fingerprint %#x, want %#x", got, want)
	}
}

func TestReportString(t *testing.T) {
	s := New(Config{Cluster: newTestCluster(4), Policy: Backfill})
	submitAll(t, s, SyntheticMix(3, 20, 4))
	rep := s.Run()
	out := rep.String()
	if !strings.Contains(out, "policy easy") || !strings.Contains(out, "node  0 [") {
		t.Fatalf("report missing summary or per-node bars:\n%s", out)
	}
	if len(rep.NodeUtilization()) != 4 {
		t.Fatalf("node utilization entries %d, want 4", len(rep.NodeUtilization()))
	}
}

func TestActualJitterKeepsInvariant(t *testing.T) {
	s := New(Config{
		Cluster: newTestCluster(8),
		Policy:  Backfill,
		Actual: func(j *Job, est time.Duration) time.Duration {
			// Deterministic over/under-run: odd IDs run 30% long.
			if j.ID%2 == 1 {
				return est * 13 / 10
			}
			return est * 9 / 10
		},
	})
	submitAll(t, s, SyntheticMix(11, 200, 8))
	rep := s.Run()
	if len(rep.Jobs) != 200 {
		t.Fatalf("finished %d of 200", len(rep.Jobs))
	}
	checkNoOverlap(t, rep.Jobs, 8)
}
