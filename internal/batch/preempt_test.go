package batch

import (
	"strings"
	"testing"
	"time"
)

// fixedCosts returns a Config charging deterministic round-number
// checkpoint/restore costs, so tests can pin exact start times.
func fixedCosts(ckpt, restore time.Duration) (func(*Job) time.Duration, func(*Job) time.Duration) {
	return func(*Job) time.Duration { return ckpt },
		func(*Job) time.Duration { return restore }
}

// TestPreemptionReducesHighPriorityWait is the acceptance regression:
// on a machine pinned by a long low-priority gang, a high-priority
// arrival waits the full runtime under non-preemptive EASY but only one
// checkpoint drain under preemption — with the checkpoint cost actually
// charged, not hand-waved to zero.
func TestPreemptionReducesHighPriorityWait(t *testing.T) {
	const ckpt, restore = 5 * time.Second, 3 * time.Second
	mkJobs := func() (low, high *Job, jobs []*Job) {
		low = &Job{Name: "hog", Kind: KindLBM, Nodes: 32, Priority: 0, Est: 600 * time.Second}
		high = &Job{Name: "urgent", Kind: KindCG, Nodes: 16, Priority: 9,
			Est: 60 * time.Second, Submit: 10 * time.Second}
		return low, high, []*Job{low, high}
	}
	run := func(preempt bool) (Report, *Job, *Job) {
		ck, rs := fixedCosts(ckpt, restore)
		s := New(Config{
			Cluster: newTestCluster(32), Policy: Backfill,
			Preempt: preempt, CheckpointCost: ck, RestoreCost: rs,
		})
		low, high, jobs := mkJobs()
		submitAll(t, s, jobs)
		return s.Run(), low, high
	}

	easyRep, _, easyHigh := run(false)
	if easyHigh.Wait() != 590*time.Second {
		t.Fatalf("non-preemptive EASY high-priority wait %v, want 590s behind the hog", easyHigh.Wait())
	}

	rep, low, high := run(true)
	// The hog is checkpointed at the arrival instant: the urgent job
	// starts when the 5s drain completes.
	if high.Start != 15*time.Second {
		t.Fatalf("preempted start %v, want 15s (arrival + checkpoint drain)", high.Start)
	}
	if high.Wait() >= easyHigh.Wait() {
		t.Fatalf("preemption did not reduce the high-priority wait: %v vs EASY %v", high.Wait(), easyHigh.Wait())
	}
	if low.Preemptions() != 1 {
		t.Fatalf("hog preempted %d times, want 1", low.Preemptions())
	}
	// Checkpoint cost charged: the hog held its first gang through the
	// drain, and pays the restore on redispatch.
	if low.CheckpointOverhead() != ckpt+restore {
		t.Fatalf("checkpoint overhead %v, want %v", low.CheckpointOverhead(), ckpt+restore)
	}
	segs := low.Segments()
	if len(segs) != 2 || !segs[0].Preempted || segs[0].End != 15*time.Second {
		t.Fatalf("hog segments %+v, want a preempted first segment ending at the 15s drain", segs)
	}
	// The hog lost no virtual progress: 10s ran before the checkpoint,
	// so the second segment carries 590s of work plus the 3s restore.
	if got := segs[1].End - segs[1].Start; got != 593*time.Second {
		t.Fatalf("hog resume segment %v, want 593s (590s left + 3s restore)", got)
	}
	if low.State != Done || rep.PreemptEvents != 1 || rep.Preempted != 1 {
		t.Fatalf("terminal state %v, preempt events %d/%d", low.State, rep.PreemptEvents, rep.Preempted)
	}
	if rep.CheckpointOverhead != ckpt+restore {
		t.Fatalf("report overhead %v, want %v", rep.CheckpointOverhead, ckpt+restore)
	}
	if !strings.Contains(rep.String(), "preemption: 1 jobs preempted") {
		t.Fatalf("report missing preemption line:\n%s", rep)
	}
	checkNoOverlap(t, rep.Jobs, 32)
	checkNoOverlap(t, easyRep.Jobs, 32)
}

// TestPreemptionSuspendsLowestPriorityGangs pins victim selection: with
// several candidate gangs running, the preemptor drains the
// lowest-priority ones and only as many as it needs. The two victims
// checkpoint at the same instant, so their drains serialize on the
// shared store link: the wave settles at the *sum* of the drain times
// (20s + 2s + 2s), not at their maximum.
func TestPreemptionSuspendsLowestPriorityGangs(t *testing.T) {
	ck, rs := fixedCosts(2*time.Second, time.Second)
	s := New(Config{Cluster: newTestCluster(32), Policy: Backfill,
		Preempt: true, CheckpointCost: ck, RestoreCost: rs})
	keep := &Job{Name: "keep", Nodes: 8, Priority: 5, Est: 500 * time.Second}
	vict1 := &Job{Name: "vict1", Nodes: 12, Priority: 1, Est: 500 * time.Second}
	vict2 := &Job{Name: "vict2", Nodes: 12, Priority: 2, Est: 500 * time.Second}
	urgent := &Job{Name: "urgent", Nodes: 20, Priority: 9,
		Est: 50 * time.Second, Submit: 20 * time.Second}
	submitAll(t, s, []*Job{keep, vict1, vict2, urgent})
	rep := s.Run()
	if keep.Preemptions() != 0 {
		t.Fatalf("priority-5 gang was preempted for a need both low gangs could cover")
	}
	if vict1.Preemptions() != 1 || vict2.Preemptions() != 1 {
		t.Fatalf("victims preempted %d/%d times, want both once (20 nodes need both 12-node gangs)",
			vict1.Preemptions(), vict2.Preemptions())
	}
	if urgent.Start != 24*time.Second {
		t.Fatalf("urgent started at %v, want 24s after the serialized drains", urgent.Start)
	}
	// Both directions of the store link are contended. Drain side:
	// vict2 queued 2s behind vict1's transfer. Restore side: both
	// victims re-dispatch together when the urgent job ends, and vict1
	// (behind vict2 in the priority order) queues 1s on the read link
	// behind vict2's restore transfer. Overheads: vict1 = 2s drain +
	// 1s read wait + 1s restore = 4s; vict2 = 2s drain wait + 2s drain
	// + 1s restore = 5s.
	if vict1.CheckpointOverhead() != 4*time.Second || vict2.CheckpointOverhead() != 5*time.Second {
		t.Fatalf("victim overheads %v/%v, want 4s and 5s (both link directions contended)",
			vict1.CheckpointOverhead(), vict2.CheckpointOverhead())
	}
	if rep.DrainWait != 2*time.Second {
		t.Fatalf("report drain wait %v, want the 2s vict2 queued for the link", rep.DrainWait)
	}
	if rep.RestoreWait != time.Second {
		t.Fatalf("report restore wait %v, want the 1s vict1 queued for the read link", rep.RestoreWait)
	}
	for _, j := range rep.Jobs {
		if j.State != Done {
			t.Fatalf("%s ended %v", j, j.State)
		}
	}
	checkNoOverlap(t, rep.Jobs, 32)
}

// TestPreemptionNeverSuspendsEqualOrHigherPriority asserts the strict
// inequality: a blocked job cannot preempt gangs of its own priority.
func TestPreemptionNeverSuspendsEqualOrHigherPriority(t *testing.T) {
	ck, rs := fixedCosts(2*time.Second, time.Second)
	s := New(Config{Cluster: newTestCluster(8), Policy: Backfill,
		Preempt: true, CheckpointCost: ck, RestoreCost: rs})
	running := &Job{Name: "running", Nodes: 8, Priority: 5, Est: 100 * time.Second}
	same := &Job{Name: "same", Nodes: 8, Priority: 5, Est: 10 * time.Second, Submit: time.Second}
	submitAll(t, s, []*Job{running, same})
	rep := s.Run()
	if running.Preemptions() != 0 {
		t.Fatal("equal-priority gang was preempted")
	}
	if same.Start != 100*time.Second {
		t.Fatalf("equal-priority arrival started at %v, want 100s", same.Start)
	}
	checkNoOverlap(t, rep.Jobs, 8)
}

// TestPreemptedWorkloadCheckpointRestore runs real workloads through a
// preemption cycle and asserts the adapters' Checkpoint/Restore path
// produces the same results as an uninterrupted run — state snapshots,
// not recomputation from scratch.
func TestPreemptedWorkloadCheckpointRestore(t *testing.T) {
	for _, kind := range []JobKind{KindLBM, KindPDE, KindCG} {
		run := func(preempt bool) (*Job, Report) {
			ck, rs := fixedCosts(2*time.Second, time.Second)
			s := New(Config{
				Cluster: newTestCluster(4), Policy: Backfill,
				Preempt: preempt, CheckpointCost: ck, RestoreCost: rs,
				Execute: SimExecutor{},
			})
			victim := &Job{Name: "victim", Kind: kind, Nodes: 2, Priority: 0, Est: 100 * time.Second}
			urgent := &Job{Name: "urgent", Kind: KindPDE, Nodes: 4, Priority: 9,
				Est: 10 * time.Second, Submit: 40 * time.Second}
			switch kind {
			case KindLBM:
				victim.Problem, victim.Steps = [3]int{8, 8, 8}, 10
			case KindPDE:
				victim.Problem, victim.Steps = [3]int{12, 12, 4}, 12
			case KindCG:
				victim.Problem, victim.Steps = [3]int{16, 16, 1}, 400
			}
			urgent.Problem, urgent.Steps = [3]int{8, 8, 2}, 4
			submitAll(t, s, []*Job{victim, urgent})
			rep := s.Run()
			return victim, rep
		}
		straight, _ := run(false)
		victim, rep := run(true)
		if victim.Preemptions() == 0 {
			t.Fatalf("%v: victim was never preempted", kind)
		}
		if victim.State != Done {
			t.Fatalf("%v: preempted victim ended %v: %v", kind, victim.State, victim.Err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%v: %d failed jobs in preempted schedule", kind, rep.Failed)
		}
		// LBM and PDE are deterministic step-for-step: the segmented run
		// must reproduce the uninterrupted result exactly. CG loses its
		// Krylov space at the restart, so only convergence is asserted
		// (the detail records a possibly different iteration count).
		if kind != KindCG && victim.Detail != straight.Detail {
			t.Fatalf("%v: segmented run diverged from uninterrupted run:\n  %s\n  %s",
				kind, victim.Detail, straight.Detail)
		}
		checkNoOverlap(t, rep.Jobs, 4)
	}
}

// TestPreemptionSkipsNearlyFinishedVictims pins the futile-checkpoint
// guard: when the drain would outlast the victim's remaining runtime,
// the nodes free no earlier by preempting, so the scheduler waits
// instead of charging checkpoint+restore for nothing.
func TestPreemptionSkipsNearlyFinishedVictims(t *testing.T) {
	ck, rs := fixedCosts(5*time.Second, 3*time.Second)
	s := New(Config{Cluster: newTestCluster(8), Policy: Backfill,
		Preempt: true, CheckpointCost: ck, RestoreCost: rs})
	// 4s of work left when the urgent job arrives: less than the 5s
	// drain, so preemption cannot help.
	almost := &Job{Name: "almost", Nodes: 8, Priority: 0, Est: 100 * time.Second}
	urgent := &Job{Name: "urgent", Nodes: 8, Priority: 9,
		Est: 10 * time.Second, Submit: 96 * time.Second}
	submitAll(t, s, []*Job{almost, urgent})
	rep := s.Run()
	if almost.Preemptions() != 0 || rep.PreemptEvents != 0 {
		t.Fatalf("nearly-finished gang was checkpointed (%d events)", rep.PreemptEvents)
	}
	if urgent.Start != 100*time.Second {
		t.Fatalf("urgent started at %v, want 100s (victim's natural completion)", urgent.Start)
	}
	checkNoOverlap(t, rep.Jobs, 8)
}

// TestFairSharePreemptionRespectsDisciplineOrder pins the anti-thrash
// rule: under fair-share a victim must rank behind the preemptor in
// the *discipline* order, so a heavy user's high-priority job cannot
// evict the light user's gang the scheduler just dispatched — the
// combination that previously produced hundreds of zero-progress
// checkpoint/restore cycles on a small machine.
func TestFairSharePreemptionRespectsDisciplineOrder(t *testing.T) {
	ck, rs := fixedCosts(2*time.Second, time.Second)
	s := New(Config{Cluster: newTestCluster(4), Policy: FairShare,
		Preempt: true, CheckpointCost: ck, RestoreCost: rs})
	// The heavy user burns usage first, so the light user's job leads
	// the fair-share order despite its lower priority.
	warm := &Job{Name: "warm", User: "heavy", Nodes: 4, Priority: 5, Est: 100 * time.Second}
	light := &Job{Name: "light", User: "lite", Nodes: 4, Priority: 0,
		Est: 50 * time.Second, Submit: 100 * time.Second}
	chase := &Job{Name: "chase", User: "heavy", Nodes: 4, Priority: 5,
		Est: 50 * time.Second, Submit: 100 * time.Second}
	submitAll(t, s, []*Job{warm, light, chase})
	rep := s.Run()
	if light.Preemptions() != 0 {
		t.Fatalf("heavy user's high-priority job evicted the light user's gang (%d preemptions)",
			light.Preemptions())
	}
	if light.Start != 100*time.Second || chase.Start != 150*time.Second {
		t.Fatalf("starts light=%v chase=%v, want fair-share order 100s/150s", light.Start, chase.Start)
	}
	if rep.PreemptEvents != 0 {
		t.Fatalf("%d preempt events, want none", rep.PreemptEvents)
	}
	checkNoOverlap(t, rep.Jobs, 4)
}

// TestDefaultCheckpointCostScalesWithFootprint sanity-checks the cost
// model: a bigger per-node image costs more to drain, restore rides the
// fast bus direction, and both are strictly positive.
func TestDefaultCheckpointCostScalesWithFootprint(t *testing.T) {
	mk := func(p [3]int) *Job {
		j := &Job{Kind: KindLBM, Nodes: 2, Problem: p}
		j.memNeed = memoryNeed(j.Kind, p, j.Nodes)
		return j
	}
	small, big := mk([3]int{16, 16, 16}), mk([3]int{64, 64, 64})
	if DefaultCheckpointCost(small) <= 0 || DefaultRestoreCost(small) <= 0 {
		t.Fatal("zero checkpoint/restore cost")
	}
	if DefaultCheckpointCost(big) <= DefaultCheckpointCost(small) {
		t.Fatal("checkpoint cost not increasing in image size")
	}
	if DefaultRestoreCost(big) >= DefaultCheckpointCost(big) {
		t.Fatal("restore (fast downstream bus) should be cheaper than checkpoint (slow AGP readback)")
	}
}
