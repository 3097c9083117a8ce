package batch

import (
	"errors"
	"fmt"
)

// Mid-run cancellation. Cancel withdraws a job at any point of its
// lifecycle before a terminal state: a queued job simply leaves the
// queue, a running gang is cut off at the current instant (its nodes
// free immediately, elapsed progress and overhead stay accounted, any
// checkpoint image is discarded), and a job whose checkpoint is
// mid-drain finishes the drain — the nodes and store-link slot are
// already committed — and is then discarded instead of requeued. The
// busy ≡ work + overhead invariant holds for canceled jobs too: every
// segment's node-holding time is exactly the work it completed plus the
// overhead charged to it.

// ErrNoSuchJob reports a Cancel or lookup against an ID the scheduler
// does not hold: one no Submit ever assigned, or a job already handed to
// the Retirer (retire.go), which is then the one to ask.
var ErrNoSuchJob = errors.New("no such job")

// ErrJobTerminal reports a Cancel against a job already done, failed,
// or canceled.
var ErrJobTerminal = errors.New("job already terminal")

// JobByID returns the live job for an assigned ID. The pointer is the
// scheduler-owned job; callers must not mutate it.
func (s *Scheduler) JobByID(id int) (*Job, error) {
	j, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("batch: %w: %d", ErrNoSuchJob, id)
	}
	return j, nil
}

// Cancel withdraws job id. It is an error to cancel an unknown or
// already-terminal job. Cancellation of a mid-drain job is
// asynchronous: the drain event (already booked on the store link)
// fires first, then the job lands Canceled instead of requeueing.
func (s *Scheduler) Cancel(id int) error {
	j, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("batch: %w: %d", ErrNoSuchJob, id)
	}
	switch j.State {
	case Done, Failed, Canceled:
		return fmt.Errorf("batch: %w: job %d is %s", ErrJobTerminal, id, j.State)
	}
	if j.preempting || j.banking {
		// A proactive bank mid-drain settles like a preemption drain: the
		// nodes and link slot are committed, so the event lands first and
		// the job is discarded at settlement instead of continuing.
		j.canceled = true
		return nil
	}
	if j.State == Running {
		s.cancelRunning(j)
		return nil
	}
	s.cancelQueued(j)
	return nil
}

// cancelRunning cuts a running gang off at the current instant: the
// segment ends here (flagged Preempted — it did not complete), elapsed
// work is banked, an interrupted restore prefix is refunded exactly as
// a preemption would (bankProgress), and the nodes free immediately.
func (s *Scheduler) cancelRunning(j *Job) {
	s.running.del(j.End, j.ID)
	s.bankProgress(j)
	s.endSegment(j, "cancel", true)
	j.sliceEnd, j.sliceFull, j.slicing = false, 0, false
	s.finishCanceled(j)
}

// cancelQueued withdraws a pending job, from the queue or, not yet
// arrived, from the arrival heap. A suspended-to-host image is discarded
// and its pinned memory released — unless the image is mid-eviction, in
// which case the in-flight store write keeps the reservation until it
// settles (settleDemotions releases it; the harmless restore re-pricing
// there is moot for a terminal job).
func (s *Scheduler) cancelQueued(j *Job) {
	if j.qpos >= 0 {
		s.pending.remove(j)
	} else {
		s.arrivals.remove(j)
	}
	if j.hostImage && j.demoteEnd == 0 {
		s.cfg.Cluster.unreserve(j.Alloc, j.memNeed)
		j.hostImage = false
	}
	s.finishCanceled(j)
}

// finishCanceled records the terminal state shared by every cancel
// path, discarding the image and any restore or host drain it priced. A
// job canceled before its first dispatch gets Start stamped at the
// cancel instant, so Wait() reads as the time it sat queued; a future
// arrival is clamped to now so no finished job postdates the clock.
func (s *Scheduler) finishCanceled(j *Job) {
	j.snapshot, j.restoreCost, j.hostDrain = nil, 0, false
	j.canceled = false
	if j.arrive > s.now {
		j.arrive = s.now
	}
	if len(j.History) == 0 {
		j.Start = s.now
	}
	j.End = s.now
	j.State = Canceled
	if s.rec != nil {
		s.record(Event{Time: s.now, Kind: EvComplete, Job: j.ID, From: j.arrive, To: s.now, Detail: "canceled"})
	}
	if s.met != nil {
		s.met.canceled.Inc()
		s.met.publish(s)
	}
	s.finish(j)
}
