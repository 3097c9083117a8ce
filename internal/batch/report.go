package batch

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"time"
)

// Counters are the run totals the scheduler keeps as it goes — the one
// copy of each: Scheduler increments them where the event happens,
// Report embeds them as they stand, and the registry series that mirror
// them are set from them (schedMetrics.publish).
type Counters struct {
	// Backfilled counts jobs that jumped a blocked reservation.
	Backfilled int
	// PreemptEvents counts every checkpoint drain begun on priority.
	PreemptEvents int
	// SliceEvents counts every suspension at a quantum boundary
	// (Config.Quantum).
	SliceEvents int
	// DrainWait is the total time checkpoint drains spent queued for
	// the write direction of the shared store link behind other
	// in-flight transfers — the bandwidth-contention cost of
	// overlapping waves. Zero means every drain had the link to
	// itself.
	DrainWait time.Duration
	// RestoreWait is the read-direction mirror: total time restores
	// spent queued behind earlier in-flight restores (and, in
	// half-duplex mode, drains) — the contention cost of a mass
	// re-dispatch after a preemption wave or a quantum boundary.
	RestoreWait time.Duration
	// HostSuspends counts checkpoint drains that stayed in host RAM
	// under Config.SuspendToHost, skipping the store round-trip.
	HostSuspends int
	// Demotions counts host-resident images evicted to the checkpoint
	// store because a blocked job needed their pinned memory;
	// DemotionTime is the store-write time those evictions occupied
	// the link's write direction (not charged to any job's overhead —
	// no nodes are held while an image drains out of RAM).
	Demotions    int
	DemotionTime time.Duration
	// LostWork is the total wall time injected faults destroyed: work a
	// killed gang had run since its last banked History boundary, which
	// the job redoes after restarting from that checkpoint. Exactly the
	// gap in the busy ≡ work + overhead balance (fault_test.go pins
	// busy ≡ work + overhead + lost work).
	LostWork time.Duration
	// FaultKills counts gang kills caused by injected faults (a job may
	// be killed several times).
	FaultKills int
	// NodeFaults and TrunkOutages count the injected down events
	// applied.
	NodeFaults, TrunkOutages int
	// Banks counts proactive checkpoints settled under
	// Config.CheckpointInterval.
	Banks int
}

// JobTotals are the report's sums over the jobs that reached a terminal
// state — the one copy of each. A scheduler that keeps its terminal
// jobs computes them when a report is asked for; one that forgets them
// (retire.go) folds each job in as it leaves and carries the block
// along, and a report is then that block plus whatever jobs the
// scheduler still holds. Either way one function, fold, adds a job.
type JobTotals struct {
	// Finished counts the jobs that reached a terminal state, whether or
	// not Report.Jobs still lists them.
	Finished int
	// Makespan is the virtual time from scheduler start to the last
	// completion.
	Makespan time.Duration
	// MaxWait is the longest queue wait (Start - Submit).
	MaxWait time.Duration
	// Preempted counts jobs checkpointed off their gang at least once
	// on priority (Counters.PreemptEvents counts the drains).
	Preempted int
	// Sliced counts jobs suspended at a quantum boundary at least once
	// under time-slicing (Counters.SliceEvents counts the suspensions).
	Sliced int
	// CheckpointOverhead is the total checkpoint and restore time
	// charged to allocations across all jobs, including time spent
	// queued for the shared checkpoint-store link.
	CheckpointOverhead time.Duration
	// Faulted counts jobs an injected fault killed at least once
	// (Counters.FaultKills counts the kills).
	Faulted int
	// UserNodeTime aggregates granted node-time per Job.User — the raw
	// (undecayed) fair-share accounting view.
	UserNodeTime map[string]time.Duration
	// Failed counts jobs whose workload reported an error.
	Failed int
	// Canceled counts jobs withdrawn by Cancel before completing.
	Canceled int
	// TrunkCrossed counts jobs whose gang spanned the stacking trunk,
	// paying the Section 4.3 bandwidth on every border exchange.
	TrunkCrossed int
	// SplitGangs counts jobs placed on a non-contiguous node set
	// assembled from free fragments.
	SplitGangs int

	waitSum time.Duration // AvgWait's numerator: an integer sum, so folding early changes no digit
	done    int           // Goodput's numerator: jobs that ended Done
}

// fold adds one terminal job to the totals.
func (t *JobTotals) fold(j *Job) {
	t.Finished++
	if j.End > t.Makespan {
		t.Makespan = j.End
	}
	w := j.Wait()
	t.waitSum += w
	if w > t.MaxWait {
		t.MaxWait = w
	}
	switch j.State {
	case Done:
		t.done++
	case Failed:
		t.Failed++
	case Canceled:
		t.Canceled++
	}
	if j.Alloc.CrossesTrunk {
		t.TrunkCrossed++
	}
	if len(j.Alloc.Ranges) > 1 {
		t.SplitGangs++
	}
	if j.preempts > 0 {
		t.Preempted++
	}
	if j.slices > 0 {
		t.Sliced++
	}
	if j.faults > 0 {
		t.Faulted++
	}
	t.CheckpointOverhead += j.overhead
	if t.UserNodeTime == nil {
		t.UserNodeTime = make(map[string]time.Duration)
	}
	for _, seg := range j.Segments() {
		t.UserNodeTime[j.User] += time.Duration(seg.Alloc.Count) * (seg.End - seg.Start)
	}
}

// Report summarizes a drained queue: the cluster-operator view
// (makespan, utilization) and the user view (waits) of one scheduling
// run.
type Report struct {
	// Policy is the discipline that produced this schedule.
	Policy Policy
	// Counters are the scheduler's running totals at report time.
	Counters
	// JobTotals are the sums over every job that has finished, listed
	// in Jobs or not.
	JobTotals
	// Jobs lists the finished jobs in completion order. The entries
	// are insulated copies taken at report time: replaying the same
	// specs against another scheduler (the clusterctl comparison
	// pattern) resets the originals' lifecycle fields, but an earlier
	// report keeps the schedule it measured, so per-job statistics
	// (AvgWaitUnder, MedianEstimate) stay recomputable after any
	// number of replays. Under a scheduler that forgets its terminal
	// jobs (Engine.RetireTo) the list is what the Retirer still holds —
	// the most recent finishers, rebuilt from their final Record:
	// identity, spec, state, times, estimate and suspension counts, no
	// History or Alloc — while JobTotals covers them all.
	Jobs []*Job
	// NodeBusy is each node's accumulated allocated time.
	NodeBusy []time.Duration
	// Utilization is total busy node-time over Makespan * nodes.
	Utilization float64
	// AvgWait is the mean queue wait (Start - Submit) over every
	// finished job.
	AvgWait time.Duration
	// ShortCut is the median resolved runtime estimate of the jobs the
	// report lists, and ShortWait the mean wait of those at or below it
	// — the short-job population time-slicing exists to help. They are
	// plain conveniences over Jobs (a median does not fold, so they are
	// not totals): since Jobs holds insulated copies, MedianEstimate
	// and AvgWaitUnder recompute them identically even after the specs
	// have been replayed against other schedulers.
	ShortCut, ShortWait time.Duration
	// NodeDownTime is total node-unavailable time (still-down nodes
	// clamped to the makespan).
	NodeDownTime time.Duration
	// Availability is 1 − NodeDownTime/(Makespan × nodes): the machine-
	// time fraction the storm left standing. 1 when no faults were
	// injected.
	Availability float64
	// Goodput is completed (Done) jobs per virtual second of makespan —
	// the figure proactive checkpointing defends under a failure storm.
	Goodput float64
	// AvgFreeFrags is the mean number of free fragments seen at
	// allocation instants — the fragmentation the placements created.
	AvgFreeFrags float64
	// Events is the recorded lifecycle stream, copied from the attached
	// Config.Recorder when it can replay one: the whole run from a
	// MemRecorder, the most recent RingCapacity lifecycle events from a
	// RingRecorder; empty otherwise. It backs Timeline and the
	// report-level WriteChromeTrace (obs.go).
	Events []Event
	// blocked is the blocked-pass row, at report time, of every job the
	// scheduler or its Retirer still holds that was ever passed over —
	// what Explain reads (explain.go). Nil when there is none, as with no
	// recorder attached.
	blocked map[int]*blockRow
}

// report assembles the Report: the totals carried for jobs already
// forgotten, plus the jobs still held. Finished jobs are copied into
// the report: the scheduler-owned lifecycle fields of the caller's *Job
// specs are reset at the next Submit (the replay pattern), and an
// already-issued report must not see its schedule rewritten under it.
func (s *Scheduler) report() Report {
	r := Report{
		Policy:       s.cfg.Policy,
		Counters:     s.ctr,
		JobTotals:    s.tot,
		Jobs:         make([]*Job, 0, len(s.finished)),
		NodeBusy:     s.cfg.Cluster.BusyTimes(),
		Availability: 1,
		AvgFreeFrags: s.cfg.Cluster.AvgFreeFrags(),
	}
	// The report's map is its own: the scheduler's keeps growing.
	if r.UserNodeTime = maps.Clone(s.tot.UserNodeTime); r.UserNodeTime == nil {
		r.UserNodeTime = make(map[string]time.Duration)
	}
	if src, ok := s.cfg.Recorder.(interface{ Events() []Event }); ok {
		r.Events = append([]Event(nil), src.Events()...)
	}
	if s.retirer != nil {
		s.retirer.Retained(func(rec Record) {
			r.Jobs = append(r.Jobs, rec.job())
			r.noteBlocked(rec.ID, rec.blocked)
		})
	}
	for _, j := range s.finished {
		cp := *j
		r.Jobs = append(r.Jobs, &cp)
		r.JobTotals.fold(&cp)
		r.noteBlocked(j.ID, j.blocked)
	}
	if s.rec != nil {
		note := func(j *Job) { r.noteBlocked(j.ID, j.blocked) }
		s.eachQueued(note)
		s.running.each(note)
	}
	if r.Finished > 0 {
		r.AvgWait = r.waitSum / time.Duration(r.Finished)
	}
	r.ShortCut = r.MedianEstimate()
	r.ShortWait = r.AvgWaitUnder(r.ShortCut)
	if r.Makespan > 0 {
		var busy time.Duration
		for _, b := range r.NodeBusy {
			busy += b
		}
		r.Utilization = float64(busy) / (float64(r.Makespan) * float64(len(r.NodeBusy)))
	}
	// Fault availability and goodput: down time already settled plus
	// still-down nodes clamped to the makespan.
	r.NodeDownTime = s.downTime
	for i := range s.downSince {
		if s.downSince[i] >= 0 && r.Makespan > s.downSince[i] {
			r.NodeDownTime += r.Makespan - s.downSince[i]
		}
	}
	if r.Makespan > 0 {
		if n := len(r.NodeBusy); n > 0 {
			r.Availability = 1 - float64(r.NodeDownTime)/(float64(r.Makespan)*float64(n))
		}
		r.Goodput = float64(r.done) / r.Makespan.Seconds()
	}
	return r
}

// noteBlocked files a copy of job id's counter row, if the job was ever
// passed over: a live job's row goes on counting after the report.
func (r *Report) noteBlocked(id int, row *blockRow) {
	if row == nil || *row == (blockRow{}) {
		return
	}
	if r.blocked == nil {
		r.blocked = make(map[int]*blockRow)
	}
	cp := *row
	r.blocked[id] = &cp
}

// AvgWaitUnder returns the mean queue wait over finished jobs whose
// resolved runtime estimate is at most cut — the short-job wait, the
// figure time-slicing exists to improve. Zero when no job qualifies.
func (r Report) AvgWaitUnder(cut time.Duration) time.Duration {
	var sum time.Duration
	n := 0
	for _, j := range r.Jobs {
		if j.Estimate() <= cut {
			sum += j.Wait()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// MedianEstimate returns the median resolved runtime estimate over
// finished jobs — the short/long cut the clusterctl comparison table
// uses. Zero for an empty report.
func (r Report) MedianEstimate() time.Duration {
	if len(r.Jobs) == 0 {
		return 0
	}
	ests := make([]time.Duration, len(r.Jobs))
	for i, j := range r.Jobs {
		ests[i] = j.Estimate()
	}
	sort.Slice(ests, func(i, k int) bool { return ests[i] < ests[k] })
	return ests[len(ests)/2]
}

// NodeUtilization returns each node's busy fraction of the makespan.
func (r Report) NodeUtilization() []float64 {
	out := make([]float64, len(r.NodeBusy))
	if r.Makespan <= 0 {
		return out
	}
	for i, b := range r.NodeBusy {
		out[i] = float64(b) / float64(r.Makespan)
	}
	return out
}

// RoundDuration rounds a virtual duration for display: second
// granularity for long schedules, millisecond for the sub-10s runs of
// shrunk -execute demos.
func RoundDuration(d time.Duration) time.Duration {
	if d < 10*time.Second {
		return d.Round(time.Millisecond)
	}
	return d.Round(time.Second)
}

// String renders the operator report: the summary line followed by a
// per-node utilization bar chart.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %-8s %d jobs, makespan %v, utilization %.1f%%, avg wait %v, max wait %v, %d backfilled, %d failed\n",
		r.Policy, r.Finished, RoundDuration(r.Makespan),
		100*r.Utilization, RoundDuration(r.AvgWait), RoundDuration(r.MaxWait),
		r.Backfilled, r.Failed)
	fmt.Fprintf(&b, "  placement: %d trunk-crossing gangs, %d split gangs, %.1f avg free fragments at allocation\n",
		r.TrunkCrossed, r.SplitGangs, r.AvgFreeFrags)
	if r.Canceled > 0 {
		fmt.Fprintf(&b, "  canceled: %d jobs withdrawn before completion\n", r.Canceled)
	}
	if r.PreemptEvents > 0 {
		fmt.Fprintf(&b, "  preemption: %d jobs preempted (%d checkpoints), %v checkpoint/restore overhead\n",
			r.Preempted, r.PreemptEvents, RoundDuration(r.CheckpointOverhead))
	}
	if r.SliceEvents > 0 {
		fmt.Fprintf(&b, "  timeslice: %d jobs sliced (%d suspensions)\n", r.Sliced, r.SliceEvents)
	}
	if r.DrainWait > 0 || r.RestoreWait > 0 {
		fmt.Fprintf(&b, "  store-link contention: drains queued %v (write), restores queued %v (read)\n",
			RoundDuration(r.DrainWait), RoundDuration(r.RestoreWait))
	}
	if r.HostSuspends > 0 {
		fmt.Fprintf(&b, "  suspend-to-host: %d in-RAM suspensions, %d demoted to store (%v of store writes)\n",
			r.HostSuspends, r.Demotions, RoundDuration(r.DemotionTime))
	}
	if r.NodeFaults > 0 || r.TrunkOutages > 0 {
		fmt.Fprintf(&b, "  faults: %d node crashes, %d trunk outages, %d gang kills (%d jobs), lost work %v, %d proactive banks\n",
			r.NodeFaults, r.TrunkOutages, r.FaultKills, r.Faulted, RoundDuration(r.LostWork), r.Banks)
		fmt.Fprintf(&b, "  availability %.2f%%, goodput %.4f jobs/s, node down-time %v\n",
			100*r.Availability, r.Goodput, RoundDuration(r.NodeDownTime))
	}
	if r.Policy == FairShare && len(r.UserNodeTime) > 0 {
		users := make([]string, 0, len(r.UserNodeTime))
		//batchlint:allow determinism -- keys are collected and sorted on the next line before the fair-share block renders
		for u := range r.UserNodeTime {
			users = append(users, u)
		}
		sort.Strings(users)
		b.WriteString("  fair-share:")
		for _, u := range users {
			fmt.Fprintf(&b, " %s=%v", u, RoundDuration(r.UserNodeTime[u]))
		}
		b.WriteByte('\n')
	}
	const width = 40
	for i, u := range r.NodeUtilization() {
		filled := int(u*width + 0.5)
		if filled > width {
			filled = width
		}
		fmt.Fprintf(&b, "  node %2d [%s%s] %5.1f%%\n",
			i, strings.Repeat("#", filled), strings.Repeat(".", width-filled), 100*u)
	}
	return b.String()
}
