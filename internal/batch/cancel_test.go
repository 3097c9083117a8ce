package batch

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// Mid-run cancellation tests: a cancel at any lifecycle point — queued,
// running, mid-drain, mid-restore — must free exactly the resources the
// job held and keep the banked-progress invariant: every canceled job's
// node-holding time equals the work it actually completed plus the
// overhead charged to it.

// checkCanceledAccounting asserts busy ≡ banked work + overhead for a
// canceled job (the Done-job invariant with doneWork standing in for
// the full estimate).
func checkCanceledAccounting(t *testing.T, j *Job) {
	t.Helper()
	if j.State != Canceled {
		t.Fatalf("%s ended %v, want canceled", j, j.State)
	}
	diff := j.BusyTime() - j.doneWork - j.CheckpointOverhead()
	if diff < 0 {
		diff = -diff
	}
	if diff > 5*time.Millisecond {
		t.Fatalf("%s busy %v != banked %v + overhead %v (diff %v)",
			j, j.BusyTime(), j.doneWork, j.CheckpointOverhead(), diff)
	}
	segments := j.Segments()
	for i, seg := range segments {
		if seg.End < seg.Start {
			t.Fatalf("%s segment %d runs backwards: %+v", j, i, seg)
		}
		if i > 0 && seg.Start < segments[i-1].End {
			t.Fatalf("%s resident twice across cancel: segments %d/%d", j, i-1, i)
		}
	}
}

// TestCancelQueuedJob withdraws a job that never dispatched: it leaves
// the queue immediately, holds no nodes, and the machine schedules as
// if it never existed.
func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{Cluster: newTestCluster(4)})
	running := &Job{Name: "holds", Kind: KindPDE, Nodes: 4, Est: 10 * time.Second}
	waiting := &Job{Name: "waits", Kind: KindPDE, Nodes: 4, Est: 10 * time.Second}
	submitAll(t, s, []*Job{running, waiting})
	s.schedulePass() // dispatch the first; the second is queued behind it
	if running.State != Running || waiting.State != Queued {
		t.Fatalf("setup: %v/%v", running.State, waiting.State)
	}
	if err := s.Cancel(waiting.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if waiting.State != Canceled || len(waiting.Segments()) != 0 {
		t.Fatalf("queued cancel left %v with %d segments", waiting.State, len(waiting.Segments()))
	}
	rep := s.Run()
	if rep.Canceled != 1 || len(rep.Jobs) != 2 {
		t.Fatalf("report: %d canceled of %d jobs", rep.Canceled, len(rep.Jobs))
	}
	if rep.Makespan != 10*time.Second {
		t.Fatalf("canceled job distorted the schedule: makespan %v", rep.Makespan)
	}
	checkCanceledAccounting(t, waiting)
	if waiting.BusyTime() != 0 {
		t.Fatalf("never-dispatched job shows busy time %v", waiting.BusyTime())
	}
}

// TestCancelRunningGang cuts off a running gang: its nodes free at the
// cancel instant (the waiter starts right there), elapsed progress and
// overhead stay accounted, and the checkpoint image is discarded.
func TestCancelRunningGang(t *testing.T) {
	s := New(Config{Cluster: newTestCluster(4)})
	victim := &Job{Name: "victim", Kind: KindPDE, Nodes: 4, Est: time.Hour}
	waiter := &Job{Name: "waiter", Kind: KindPDE, Nodes: 4, Est: 10 * time.Second, Submit: 2 * time.Second}
	submitAll(t, s, []*Job{victim, waiter})
	s.Step() // dispatch victim at 0, advance to waiter's arrival
	if victim.State != Running || s.Now() != 2*time.Second {
		t.Fatalf("setup: %v at %v", victim.State, s.Now())
	}
	if err := s.Cancel(victim.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	if victim.State != Canceled || victim.End != 2*time.Second {
		t.Fatalf("running cancel: state %v end %v", victim.State, victim.End)
	}
	if free := s.cfg.Cluster.FreeNodes(); free != 4 {
		t.Fatalf("cancel freed %d of 4 nodes", free)
	}
	rep := s.Run()
	if waiter.Start != 2*time.Second {
		t.Fatalf("waiter started %v, want the cancel instant", waiter.Start)
	}
	if rep.Canceled != 1 {
		t.Fatalf("report counts %d canceled", rep.Canceled)
	}
	checkCanceledAccounting(t, victim)
	if victim.BusyTime() != 2*time.Second {
		t.Fatalf("victim busy %v, want the 2s it actually held", victim.BusyTime())
	}
}

// TestCancelMidDrain cancels a job whose preemption checkpoint is
// draining: the drain completes (the link slot and nodes were already
// committed), then the job lands Canceled instead of requeueing, and
// the preemptor's wave settles normally.
func TestCancelMidDrain(t *testing.T) {
	ck, rs := fixedCosts(500*time.Millisecond, 200*time.Millisecond)
	s := New(Config{Cluster: newTestCluster(4), Preempt: true, CheckpointCost: ck, RestoreCost: rs})
	low := &Job{Name: "low", Kind: KindPDE, Nodes: 4, Priority: 0, Est: time.Hour}
	high := &Job{Name: "high", Kind: KindPDE, Nodes: 4, Priority: 5, Est: 10 * time.Second, Submit: 2 * time.Second}
	submitAll(t, s, []*Job{low, high})
	s.Step()         // dispatch low, advance to high's arrival
	s.schedulePass() // high blocked -> low begins its checkpoint drain
	if !low.preempting {
		t.Fatalf("setup: low not draining (state %v)", low.State)
	}
	if err := s.Cancel(low.ID); err != nil {
		t.Fatalf("cancel mid-drain: %v", err)
	}
	if low.State != Running || !low.canceled {
		t.Fatal("mid-drain cancel should be deferred to the drain event")
	}
	rep := s.Run()
	if low.State != Canceled {
		t.Fatalf("low ended %v", low.State)
	}
	if low.End != 2*time.Second+500*time.Millisecond {
		t.Fatalf("low ended at %v, want drain end 2.5s", low.End)
	}
	if high.State != Done || high.Start != low.End {
		t.Fatalf("preemptor: %v start %v, want dispatch at the drain end", high.State, high.Start)
	}
	if high.wavePending || high.waveLeft != 0 {
		t.Fatal("wave never settled across the canceled victim")
	}
	if rep.Canceled != 1 || rep.PreemptEvents != 1 {
		t.Fatalf("report: %d canceled, %d preempt events", rep.Canceled, rep.PreemptEvents)
	}
	checkCanceledAccounting(t, low)
}

// TestCancelMidRestore cancels a preempted job inside its restore
// prefix at redispatch: the reload is abandoned, the untransferred
// read gives its link slot back, and the overhead refund keeps busy
// time exactly equal to charged overhead plus banked work.
func TestCancelMidRestore(t *testing.T) {
	ck, rs := fixedCosts(500*time.Millisecond, 30*time.Second)
	s := New(Config{Cluster: newTestCluster(4), Preempt: true, CheckpointCost: ck, RestoreCost: rs})
	low := &Job{Name: "low", Kind: KindPDE, Nodes: 4, Priority: 0, Est: time.Hour}
	high := &Job{Name: "high", Kind: KindPDE, Nodes: 4, Priority: 5, Est: 10 * time.Second, Submit: 2 * time.Second}
	submitAll(t, s, []*Job{low, high})
	// Drive until low redispatches with its store-read restore prefix,
	// stopping right at the dispatch instant (Step's pass and advance
	// are atomic, so the loop is decomposed here).
	redispatched := func() bool { return low.State == Running && low.segRestore > 0 && len(low.History) > 0 }
	for i := 0; i < 50 && !redispatched(); i++ {
		s.settleDemotions()
		s.schedulePass()
		if redispatched() {
			break
		}
		next, ok := s.nextEvent()
		if !ok {
			break
		}
		s.advance(next)
	}
	if !redispatched() || low.readEnd == 0 {
		t.Fatalf("setup: low %v segRestore %v readEnd %v — never redispatched through a store read",
			low.State, low.segRestore, low.readEnd)
	}
	if s.Now() != low.segStart {
		t.Fatalf("clock %v moved past the redispatch instant %v", s.Now(), low.segStart)
	}
	if err := s.Cancel(low.ID); err != nil {
		t.Fatalf("cancel mid-restore: %v", err)
	}
	rep := s.Run()
	if rep.Canceled != 1 {
		t.Fatalf("report counts %d canceled", rep.Canceled)
	}
	checkCanceledAccounting(t, low)
	if rep.RestoreWait < 0 {
		t.Fatalf("restore-wait went negative after refund: %v", rep.RestoreWait)
	}
	// The abandoned read's slot must actually be free again: the link's
	// read timeline cannot extend past the cancel instant.
	if s.link.readFree > rep.Makespan {
		t.Fatalf("read link still booked to %v after cancel (makespan %v)", s.link.readFree, rep.Makespan)
	}
}

// TestCancelErrors pins the error surface: unknown IDs and
// already-terminal jobs are rejected, a double cancel included.
func TestCancelErrors(t *testing.T) {
	s := New(Config{Cluster: newTestCluster(4)})
	if err := s.Cancel(42); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("unknown ID: %v, want ErrNoSuchJob", err)
	}
	j := &Job{Name: "runs", Kind: KindPDE, Nodes: 2, Est: time.Second}
	submitAll(t, s, []*Job{j})
	s.Run()
	if err := s.Cancel(j.ID); !errors.Is(err, ErrJobTerminal) {
		t.Fatalf("done job: %v, want ErrJobTerminal", err)
	}
	k := &Job{Name: "goes", Kind: KindPDE, Nodes: 2, Est: time.Second}
	submitAll(t, s, []*Job{k})
	if err := s.Cancel(k.ID); err != nil {
		t.Fatalf("first cancel: %v", err)
	}
	if err := s.Cancel(k.ID); !errors.Is(err, ErrJobTerminal) {
		t.Fatalf("double cancel: %v, want ErrJobTerminal", err)
	}
}

// TestCancelPropertySweep drives the full crossed configuration matrix
// with cancels injected at three lifecycle points mid-run — a queued
// job, a running gang, and a draining victim — and re-checks the
// property-suite invariants: canceled jobs keep busy ≡ banked work +
// overhead, surviving jobs keep the full Done invariant, and no node is
// ever double-booked across the cancels.
func TestCancelPropertySweep(t *testing.T) {
	DebugVerifyShadows = true
	defer func() { DebugVerifyShadows = false }()

	const nodes, count = 32, 150
	for _, cfg := range propertyConfigs() {
		cfg := cfg
		name := fmt.Sprintf("%v/preempt=%v/quantum=%v/host=%v", cfg.Policy, cfg.Preempt, cfg.Quantum, cfg.SuspendToHost)
		t.Run(name, func(t *testing.T) {
			cfg.Cluster = newTestCluster(nodes)
			s := New(cfg)
			submitAll(t, s, SyntheticStream(3, count, nodes, 5*time.Second))
			canceled := make(map[int]bool)
			cancelOne := func(pick func() *Job) {
				if j := pick(); j != nil {
					if err := s.Cancel(j.ID); err != nil {
						t.Fatalf("cancel %s: %v", j, err)
					}
					canceled[j.ID] = true
				}
			}
			firstQueued := func() *Job {
				for _, j := range s.pending.jobs {
					if j != nil && j.State == Queued && !j.hostImage && j.arrive <= s.Now() {
						return j
					}
				}
				return nil
			}
			firstRunning := func() (first *Job) {
				s.running.each(func(j *Job) {
					if first == nil && !j.preempting {
						first = j
					}
				})
				return first
			}
			firstDraining := func() (first *Job) {
				s.running.each(func(j *Job) {
					if first == nil && j.preempting && !j.canceled {
						first = j
					}
				})
				return first
			}
			for n := 0; s.Step(); n++ {
				switch n {
				case 40, 90:
					cancelOne(firstQueued)
				case 60, 110:
					cancelOne(firstRunning)
				case 80, 130:
					cancelOne(firstDraining)
				}
			}
			rep := s.report()
			if len(rep.Jobs) != count {
				t.Fatalf("finished %d of %d jobs", len(rep.Jobs), count)
			}
			if rep.Canceled != len(canceled) {
				t.Fatalf("report counts %d canceled, test issued %d", rep.Canceled, len(canceled))
			}
			// A job canceled before its first dispatch has no run
			// segments; the occupancy reconstruction covers the rest.
			ran := make([]*Job, 0, len(rep.Jobs))
			for _, j := range rep.Jobs {
				if len(j.Segments()) > 0 {
					ran = append(ran, j)
				} else if j.State != Canceled {
					t.Fatalf("%s finished with no run segments", j)
				}
			}
			checkNoOverlap(t, ran, nodes)
			for _, j := range rep.Jobs {
				if canceled[j.ID] {
					checkCanceledAccounting(t, j)
					continue
				}
				if j.State != Done {
					t.Fatalf("%s ended %v", j, j.State)
				}
				if want := j.TimeSlices() + j.Preemptions() + 1; len(j.Segments()) != want {
					t.Fatalf("%s has %d segments, want %d", j, len(j.Segments()), want)
				}
				diff := j.BusyTime() - j.Estimate() - j.CheckpointOverhead()
				if diff < 0 {
					diff = -diff
				}
				if diff > 5*time.Millisecond {
					t.Fatalf("%s busy %v != est %v + overhead %v", j, j.BusyTime(), j.Estimate(), j.CheckpointOverhead())
				}
			}
		})
	}
}
