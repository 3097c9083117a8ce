// Package batch is a Slurm-like batch scheduler and resource manager
// for the simulated GPU cluster. The paper's 32-node cluster is shared
// infrastructure: in practice such machines are driven through a batch
// front door that queues job submissions, gang-allocates node ranges,
// and accounts utilization — not through hand-written per-experiment
// mains. This package supplies that layer for the simulators grown from
// the paper: a Cluster of nodes (GPU count, memory, interconnect group
// derived from the netsim switch topology), a Job spec (gang size,
// estimated runtime, priority, workload kind), a priority queue with
// FIFO, EASY-backfill, conservative-backfill, and fair-share policies,
// and a job lifecycle driven by a virtual-time event loop. Gangs can be
// suspended mid-run through a checkpoint/restart protocol — on priority
// (Config.Preempt) or round-robin on a quantum boundary
// (Config.Quantum, time-sliced gang scheduling) — with drains and
// restores contending for the two directions of a duplex store link
// (linksim.go), and an optional suspend-to-host tier that keeps images
// in node RAM, demoting them to the store only under memory pressure
// (suspend.go). Workload adapters execute jobs on the functional
// simulators (cluster LBM + tracer, distributed CG, parallel heat
// stencil) and derive runtime estimates from the calibrated perfmodel
// hardware model.
//
// All scheduling time is virtual (time.Duration since scheduler start);
// nothing sleeps. Only workload execution — when an Executor is
// attached — does real work.
//
// The hot paths are indexed rather than scanned (index.go): placement
// enumerates an incrementally maintained free-range set, the running
// set is one slice sorted by completion event — the loop's event
// queue, which the backfill shadow sums from its earliest end — future
// arrivals sit in a binary heap until they arrive, and the queue of
// arrived jobs removes in O(1) via tombstones — so the same event loop that
// schedules the paper's 32 nodes drains a million-job queue on ten
// thousand (see docs/PERFORMANCE.md). DebugVerifyShadows cross-checks
// the incremental shadow against the full replay it replaced.
package batch

import (
	"fmt"
	"time"
)

// JobKind identifies the workload class a job runs, one per
// computational kernel family the paper's cluster serves.
type JobKind uint8

const (
	// KindLBM is a parallel lattice-Boltzmann flow simulation (package
	// cluster) with an optional pollutant-tracer post-pass (package
	// tracer), the paper's primary workload.
	KindLBM JobKind = iota
	// KindCG is a distributed conjugate-gradient solve of a Poisson
	// system (package sparse, Figure 15 decomposition).
	KindCG
	// KindPDE is a cluster-parallel explicit heat stencil (package pde,
	// Figure 14 proxy-point exchange).
	KindPDE
	numKinds
)

func (k JobKind) String() string {
	switch k {
	case KindLBM:
		return "lbm"
	case KindCG:
		return "cg"
	case KindPDE:
		return "pde"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// JobState is a job's lifecycle position: Queued -> Running -> Done or
// Failed.
type JobState uint8

const (
	// Queued means submitted and waiting for an allocation.
	Queued JobState = iota
	// Running means gang-allocated and executing.
	Running
	// Done means completed successfully.
	Done
	// Failed means the workload reported an error; the job still
	// occupied its allocation for its full runtime (a crash at the end
	// of the run, the common failure shape on real clusters).
	Failed
	// Canceled means the job was withdrawn by Scheduler.Cancel before
	// completing. A canceled job keeps whatever run segments it already
	// held (their node time is real and stays accounted); its
	// checkpoint image, if any, is discarded.
	Canceled
)

func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Job is one batch submission. Callers fill the spec fields; the
// scheduler owns the lifecycle fields after Submit.
type Job struct {
	// ID is assigned by Submit, unique per scheduler.
	ID int
	// Name is a free-form label for reports.
	Name string
	// Kind selects the workload adapter.
	Kind JobKind
	// State is scheduler-owned; beside Kind, the two bytes share a word.
	State JobState
	// Nodes is the gang size: the job needs this many nodes, allocated
	// as one contiguous range, for its whole runtime.
	Nodes int
	// Priority orders the queue; higher runs first. Equal priorities
	// fall back to submit time, then job ID, so replays are
	// deterministic. Priority also gates preemption: a blocked job may
	// only suspend running jobs of strictly lower priority.
	Priority int
	// User attributes the job to a submitting principal. The fair-share
	// policy orders the queue by each user's decayed usage; the empty
	// string is a distinct anonymous user.
	User string
	// Problem is the per-node sub-domain extents for KindLBM/KindPDE,
	// or {n, n, 1} selecting an n x n Poisson grid for KindCG. Zero
	// selects a per-kind default (see ResolvedProblem).
	Problem [3]int
	// Steps counts simulation steps (LBM/PDE) or solver iterations
	// (CG); zero means 1 (see ResolvedSteps).
	Steps int
	// Est is the caller's runtime estimate (Slurm's walltime); zero
	// asks the scheduler's Estimator. Backfill reservations trust this
	// value, exactly like the real thing.
	Est time.Duration
	// Submit is the virtual arrival time. Jobs may be submitted with a
	// future arrival; the scheduler holds them until the clock reaches
	// it. Zero means "now". Like the other spec fields it is never
	// mutated by the scheduler: the resolved arrival is Arrival().
	Submit time.Duration

	// Start and End are scheduler-owned lifecycle fields. Start is the
	// first dispatch; a preempted job keeps it across restarts.
	Start, End time.Duration
	// Alloc is the gang allocation while Running and, after completion,
	// the final segment's allocation (earlier ones are in History).
	Alloc Allocation
	// History records, in dispatch order, the run segments that ended
	// early — in a checkpoint drain, a fault kill, a cancel or a
	// proactive bank — each flagged Preempted. A run-to-completion job
	// has no entry: a Done or Failed job's final segment is its Alloc
	// from its last dispatch to End, and Segments lists both.
	History []Segment
	// Detail is the workload adapter's result summary (mass balance,
	// solver residual, tracer centroid, ...).
	Detail string
	// Err records the workload failure for Failed jobs.
	Err error

	// jobState is everything else the scheduler keeps about the job,
	// reset as one value at Submit.
	jobState
}

// jobState holds the scheduler-owned, unexported part of a Job. Submit
// assigns a fresh value — the resolved spec, every other field zero —
// so a replayed job cannot carry a previous schedule's outcome, and a
// field added here is reset without anyone remembering to
// (TestReplayResetsLifecycle walks the struct by reflection).
type jobState struct {
	// Resolved by Submit from the spec — the spec itself stays
	// caller-owned and pristine, so the same specs can be replayed
	// against another scheduler. Steps and Problem need no copy
	// (ResolvedSteps, ResolvedProblem).
	est     time.Duration // resolved estimate
	arrive  time.Duration // resolved arrival (Submit clamped to the clock)
	memNeed int64         // per-node memory footprint

	// Preemption / checkpoint-restart accounting.
	workTotal   time.Duration // true total work, fixed at first dispatch (Actual hook)
	workLeft    time.Duration // unstretched work remaining
	doneWork    time.Duration // scheduler-known completed work (estimate basis)
	restoreCost time.Duration // reload charge pending for the next dispatch
	overhead    time.Duration // checkpoint+restore time charged so far
	lostWork    time.Duration // wall time faults destroyed since the last banked boundary
	snapshot    *Snapshot     // saved workload image between dispatches
	waveFor     *Job          // victim side: the blocked job this drain is for
	acct        *usage        // the user's fair-share account, resolved at Submit (FairShare only)
	segStart    time.Duration // current segment's dispatch instant
	segRestore  time.Duration // restore prefix (link wait + transfer) inside the current segment
	promise     time.Duration // reserved start recorded when first bypassed
	readStart   time.Duration // current segment's store-read transfer start (mid-restore refunds)
	readEnd     time.Duration // ...and its end; zero when the segment carries no store read
	readWait    time.Duration // read-queue wait charged to RestoreWait for this segment
	demoteEnd   time.Duration // instant an in-flight demotion write settles; 0 when none

	// Time-slicing (see Config.Quantum). A resident gang whose remaining
	// segment outlives the quantum carries a slice-boundary event instead
	// of its completion event: sliceFull remembers where the segment
	// would really end, and the event loop either extends the slice or
	// suspends the gang at the boundary.
	sliceFull time.Duration // true end of the current segment if never sliced
	rrStamp   time.Duration // last slice-suspension instant (round-robin key)
	// qpos is where a queued job waits: at this slot of the queue or
	// behind it (queue.go), at index heapIndex(qpos) of the arrival heap
	// (index.go), or, at -1, in neither.
	qpos int

	// Counters and flags, grouped at the tail so they pack — queue
	// scans walk thousands of pending jobs per pass and are
	// cache-bound on this struct's size.
	preempts    int32 // times this job was preempted on priority
	slices      int32 // times this job was suspended at a quantum boundary
	faults      int32 // times a fault killed this job's gang mid-segment
	banks       int32 // proactive checkpoint banks settled (Config.CheckpointInterval)
	waveLeft    int32 // victims still draining on this job's behalf
	backfilled  bool
	preempting  bool // currently draining its checkpoint
	promised    bool
	wavePending bool // a preemption wave is draining on this job's behalf
	sliceEnd    bool // the pending End event is a quantum boundary
	slicing     bool // current checkpoint drain is a slice suspension
	ckptDue     bool // the pending End event is a proactive-checkpoint boundary
	banking     bool // currently draining a proactive bank (gang stays seated)
	hostDrain   bool // current drain stays in host RAM (suspend-to-host)
	hostImage   bool // suspended image resident in host RAM, memory pinned on Alloc
	canceled    bool // Cancel hit the job mid-drain: discard at requeue
	forceStore  bool // pending suspension must take the store tier: its
	// in-RAM image would pin the very memory the beneficiary needs
	ckptSlice time.Duration // quantum boundary displaced by an armed bank, restored at settle
	// blocked counts the passes that skipped this job, by reason
	// (explain.go). The row is allocated at Submit only when a recorder
	// is attached, and leaves the scheduler with the job. The flags above
	// share one word so that this pointer fits inside Job's pinned size
	// (TestJobSizePinned).
	blocked *blockRow
}

// Segment is one dispatch of a job: the gang it ran on and the interval
// it held those nodes, including any restore and checkpoint overhead.
// Preempted marks segments that ended in a checkpoint rather than
// completion.
type Segment struct {
	Alloc      Allocation
	Start, End time.Duration
	Preempted  bool
}

// Estimate returns the runtime estimate the scheduler resolved at
// submit time (Est, or the Estimator's answer).
func (j *Job) Estimate() time.Duration { return j.est }

// ResolvedSteps returns the step count the job runs: Steps, or 1 when
// Steps is not positive.
func (j *Job) ResolvedSteps() int {
	if j.Steps <= 0 {
		return 1
	}
	return j.Steps
}

// ResolvedProblem returns the problem extents the job runs: Problem, or
// the per-kind default when Problem is zero.
func (j *Job) ResolvedProblem() [3]int {
	if j.Problem == ([3]int{}) {
		return defaultProblem(j.Kind)
	}
	return j.Problem
}

// Arrival returns the resolved arrival time: Submit, clamped up to the
// virtual clock at submission.
func (j *Job) Arrival() time.Duration { return j.arrive }

// Wait returns the queue wait time (Start - Arrival) for started jobs.
func (j *Job) Wait() time.Duration { return j.Start - j.arrive }

// Runtime returns End - Start for completed jobs.
func (j *Job) Runtime() time.Duration { return j.End - j.Start }

// Backfilled reports whether the job jumped a blocked higher-priority
// job under the backfill policy.
func (j *Job) Backfilled() bool { return j.backfilled }

// Preemptions returns how many times the job was checkpointed off its
// gang to make room for a higher-priority arrival.
func (j *Job) Preemptions() int { return int(j.preempts) }

// TimeSlices returns how many times the job was suspended at a quantum
// boundary to share its nodes round-robin (Config.Quantum).
func (j *Job) TimeSlices() int { return int(j.slices) }

// Faults returns how many times a fault (node crash or trunk outage)
// killed this job's gang mid-segment (Config.Faults).
func (j *Job) Faults() int { return int(j.faults) }

// Banks returns how many proactive checkpoints the job banked in place
// at Config.CheckpointInterval boundaries.
func (j *Job) Banks() int { return int(j.banks) }

// LostWork returns the wall time this job's gangs spent on work that
// faults destroyed — execution since the last banked boundary that had
// to be redone from the checkpoint.
func (j *Job) LostWork() time.Duration { return j.lostWork }

// CheckpointOverhead returns the total checkpoint and restore time the
// scheduler charged to this job's allocations.
func (j *Job) CheckpointOverhead() time.Duration { return j.overhead }

// Promise returns the start time reserved for this job when another job
// was first scheduled ahead of it (the EASY shadow or the conservative
// reservation), and whether one was ever recorded.
func (j *Job) Promise() (time.Duration, bool) { return j.promise, j.promised }

// Segments returns the job's run segments in dispatch order: History
// and, for a Done or Failed job holding a gang, the final one, Alloc
// from the last dispatch to End (a job rebuilt from its Record has no
// Alloc, so none). Without a final segment the slice is History itself.
func (j *Job) Segments() []Segment {
	if (j.State != Done && j.State != Failed) || j.Alloc.Count == 0 {
		return j.History
	}
	last := Segment{Alloc: j.Alloc, Start: j.segStart, End: j.End}
	if len(j.History) == 0 {
		return []Segment{last} // inlined, a caller's loop keeps it on the stack
	}
	n := len(j.History)
	return append(j.History[:n:n], last)
}

// BusyTime returns the node-holding time summed over run segments —
// End-Start for a run-to-completion job, and the sum excluding queued
// gaps for a preempted one.
func (j *Job) BusyTime() time.Duration {
	var d time.Duration
	for _, seg := range j.Segments() {
		d += seg.End - seg.Start
	}
	return d
}

// rrKey is the round-robin leg of the queue order: the arrival for a
// job never sliced, the last suspension instant otherwise — so a gang
// suspended at a quantum boundary re-enters the queue behind every
// waiter of equal rank and resumes only after each has had a turn.
// Without a quantum rrStamp stays zero and rrKey is exactly the
// arrival, preserving the pre-timeslice order.
func (j *Job) rrKey() time.Duration {
	if j.rrStamp > j.arrive {
		return j.rrStamp
	}
	return j.arrive
}

// estLeft returns the scheduler-known remaining runtime estimate: the
// declared estimate minus observed progress, floored at a millisecond.
// Restore charges are accounted separately.
func (j *Job) estLeft() time.Duration {
	return max(j.est-j.doneWork, time.Millisecond)
}

func (j *Job) String() string {
	return fmt.Sprintf("job %d %q (%s, %d nodes, prio %d)", j.ID, j.Name, j.Kind, j.Nodes, j.Priority)
}
