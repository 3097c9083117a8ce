package batch

import (
	"sort"
	"time"

	"gpucluster/internal/perfmodel"
)

// Priority preemption with checkpoint/restart. When Config.Preempt is
// set and the blocked head of the queue has strictly higher priority
// than running jobs, the scheduler suspends the cheapest sufficient set
// of low-priority gangs: each victim drains a checkpoint of its
// workload image (CheckpointCost, charged as continued node occupancy),
// re-enters the queue with its completed work banked, and pays
// RestoreCost when it is dispatched again. The preemptor then starts on
// the drained nodes through the ordinary scheduling pass — priority
// order guarantees it is offered them first.

// Snapshot is a checkpointed workload image: how far the workload had
// advanced and how large the saved per-node state is. Executors that
// implement Checkpointer attach their private resumable state.
type Snapshot struct {
	// Steps is the number of workload steps completed at capture.
	Steps int
	// Bytes records the per-node image size for inspection — the same
	// figure the default cost model prices prospectively from the
	// job's memory footprint (the drain is charged before the image is
	// captured).
	Bytes int64

	state any // adapter-private resumable state (e.g. a live simulator)
}

// Checkpointer is optionally implemented by an Executor whose workloads
// can be checkpointed at preemption and resumed at the next dispatch.
// Without it, preemption still works — progress accounting is purely
// virtual and Execute runs the whole workload once at final completion.
type Checkpointer interface {
	// Checkpoint advances j's workload to done steps (resuming from
	// prev, which is nil on the first preemption) and captures a
	// restartable image. An error discards the snapshot: the job
	// restarts from scratch at resume, losing its real (but not its
	// virtual) progress.
	Checkpoint(j *Job, prev *Snapshot, done int) (*Snapshot, error)
	// Resume completes j's workload from snap, running the remaining
	// steps, and returns the result summary for the report.
	Resume(j *Job, snap *Snapshot) (detail string, err error)
}

// ckptHardware is the fixed hardware model behind the default
// checkpoint/restore costs: the paper's AGP 8x bus and Gigabit links.
var ckptHardware = perfmodel.Paper()

// storeTransfer prices moving one node's image over the Gigabit link to
// or from the checkpoint store — the leg both directions of the store
// round-trip share, and the one suspend-to-host skips.
func storeTransfer(j *Job) time.Duration {
	h := ckptHardware
	return time.Duration(float64(j.memNeed) / (h.Net.LinkBandwidth * h.Net.Efficiency) * float64(time.Second))
}

// DefaultHostSuspendCost models the bus-only half of a drain: the
// GPU->host readback over the (asymmetric, slow-up) AGP bus. It is the
// whole price of a suspend-to-host drain — the image stays in node RAM
// — and the first leg of a store checkpoint.
func DefaultHostSuspendCost(j *Job) time.Duration {
	h := ckptHardware
	bytes := float64(j.memNeed)
	return time.Duration(bytes/(h.Bus.UpBandwidth*h.Bus.Efficiency)*float64(time.Second)) + h.Bus.OpLatency
}

// DefaultHostResumeCost models the bus-only half of a restore: the
// host->GPU download riding the fast direction of the AGP bus — the
// whole price of resuming a host-resident image.
func DefaultHostResumeCost(j *Job) time.Duration {
	h := ckptHardware
	bytes := float64(j.memNeed)
	return time.Duration(bytes/(h.Bus.DownBandwidth*h.Bus.Efficiency)*float64(time.Second)) + h.Bus.OpLatency
}

// DefaultCheckpointCost models draining one node's workload image at a
// checkpoint: the GPU->host readback over the AGP bus, then the write
// to the shared checkpoint store over the node's Gigabit link. Gang
// nodes drain in parallel, so the job pays the per-node cost once
// regardless of width.
func DefaultCheckpointCost(j *Job) time.Duration {
	return DefaultHostSuspendCost(j) + storeTransfer(j)
}

// DefaultRestoreCost models reloading a checkpointed image at the next
// dispatch: the read back from the store plus the host->GPU download,
// which rides the fast direction of the AGP bus.
func DefaultRestoreCost(j *Job) time.Duration {
	return storeTransfer(j) + DefaultHostResumeCost(j)
}

// ScaledStoreCosts returns checkpoint/restore cost functions with the
// store leg priced at mbps megabytes per second instead of the paper's
// Gigabit link — the clusterctl -store-bandwidth knob. The bus legs
// keep the calibrated AGP model. mbps must be positive.
func ScaledStoreCosts(mbps float64) (ckpt, restore func(*Job) time.Duration) {
	leg := func(j *Job) time.Duration {
		return time.Duration(float64(j.memNeed) / (mbps * 1e6) * float64(time.Second))
	}
	return func(j *Job) time.Duration { return DefaultHostSuspendCost(j) + leg(j) },
		func(j *Job) time.Duration { return leg(j) + DefaultHostResumeCost(j) }
}

// preemptOutcome reports what preemptFor did (or why it did nothing)
// for a blocked job — the input the decision-explanation layer uses to
// name the head's blocker without re-deriving the preemption logic.
type preemptOutcome int

const (
	// preemptOff: preemption is disabled in the config.
	preemptOff preemptOutcome = iota
	// preemptBarred: the job's own earlier wave is still draining.
	preemptBarred
	// preemptNoVictims: no running gang has strictly lower priority and
	// ranks behind the job in the discipline order.
	preemptNoVictims
	// preemptAntiThrash: lower-priority gangs are running, but every
	// one ranks ahead of the job in the discipline order (fair-share's
	// anti-thrash rule), so none may be evicted.
	preemptAntiThrash
	// preemptFutile: eligible victims exist, but each would yield its
	// nodes before its contended checkpoint drain would finish.
	preemptFutile
	// preemptNotAdmitted: a wave was attempted but even suspending
	// every eligible gang would not seat the job.
	preemptNotAdmitted
	// preemptWave: a wave launched; the job now waits for its victims'
	// checkpoints to land.
	preemptWave
)

// preemptFor suspends the cheapest sufficient set of running gangs so
// the blocked job j can be placed once their checkpoints drain. A
// victim must have strictly lower priority AND rank behind j in the
// active discipline order — under FIFO/EASY/conservative those
// coincide, but under fair-share the second condition stops a heavy
// user's high-priority job from evicting a light user's gang the
// discipline just dispatched (which would otherwise thrash:
// zero-progress checkpoint/restore cycles). It is a no-op unless
// Config.Preempt is set. Waves overlap: a second blocked job may
// trigger its own wave while an earlier one is still draining (its
// drains queue behind the in-flight ones on the shared store link);
// only a job whose *own* wave is still in flight is barred from
// triggering another (wavePending, cleared when the last of its
// victims finishes draining), so one blocked head cannot pile wave
// upon wave for the same placement. The returned outcome feeds the
// decision-explanation layer.
func (s *Scheduler) preemptFor(j *Job) preemptOutcome {
	if !s.cfg.Preempt {
		return preemptOff
	}
	if j.wavePending {
		return preemptBarred
	}
	// Victim order: lowest priority first, then the segment with the
	// least elapsed work (cheapest to abandon), then highest ID.
	// Store drains queue behind whatever is already using the write
	// direction of the store link, so the futile-checkpoint guard
	// prices the wait too: a gang whose natural yield point
	// (completion, or its next quantum boundary) lands before its
	// contended drain would finish frees the nodes no later by just
	// running, and checkpointing it buys nothing. A suspend-to-host
	// drain skips the link entirely, so only its bus readback counts.
	var cands []*Job
	thrash, futile := 0, 0
	s.running.each(func(r *Job) {
		switch {
		case r.preempting || r.banking || r.Priority >= j.Priority:
		case !s.less(j, r):
			thrash++
		case r.End-s.now <= s.drainEstimate(r):
			futile++
		default:
			cands = append(cands, r)
		}
	})
	if len(cands) == 0 {
		switch {
		case futile > 0:
			return preemptFutile
		case thrash > 0:
			return preemptAntiThrash
		}
		return preemptNoVictims
	}
	sort.Slice(cands, func(i, k int) bool {
		a, b := cands[i], cands[k]
		if a.Priority != b.Priority {
			return a.Priority < b.Priority
		}
		if a.segStart != b.segStart {
			return a.segStart > b.segStart // least elapsed first
		}
		return a.ID > b.ID
	})
	c := s.cfg.Cluster
	var victims []*Job
	admitted := false
	// The admission trial runs with j's own resident image lifted
	// (its dispatch spends that memory) — a head self-blocked by its
	// own image could otherwise never get a wave admitted onto its
	// home nodes.
	s.withOwnImageLifted(j, func() {
		mark := len(c.probeLog)
		defer c.probeUndo(mark)
		var trial []*Job // host-eligible victims, image reservation held for the trial
		for _, v := range cands {
			c.probeFree(v.Alloc.Ranges...)
			victims = append(victims, v)
			// A host-eligible victim's image will pin its footprint on
			// the freed nodes: the admission check must see that
			// memory as gone, or the wave drains and j still cannot
			// seat (then pays a demotion on top of the suspension it
			// just funded).
			if s.hostEligible(v) {
				c.reserve(v.Alloc, v.memNeed)
				trial = append(trial, v)
			}
			if c.canPlace(j.Nodes, j.memNeed) {
				admitted = true
				break
			}
		}
		if !admitted {
			// The freed nodes alone don't seat j — perhaps the
			// victims' own resident images are what blocks it. Forcing
			// those victims to the store tier (no image, full drain
			// price) keeps the wave viable without an immediate
			// demotion round-trip. The flip re-prices the drain, so
			// the futile-checkpoint rule is re-checked at the store
			// tariff: a victim that would finish before its store
			// drain does cannot be flipped.
			for _, v := range trial {
				if v.End-s.now <= s.storeDrainEstimate(v) {
					continue
				}
				c.unreserve(v.Alloc, v.memNeed)
				v.forceStore = true
				if c.canPlace(j.Nodes, j.memNeed) {
					admitted = true
					break
				}
			}
			// Minimize the flips: an early victim's image may never
			// have been in j's way (small image, its nodes stay
			// eligible) — if re-pinning it leaves j placeable, it
			// keeps the cheap host tier.
			if admitted {
				for _, v := range trial {
					if !v.forceStore {
						continue
					}
					c.reserve(v.Alloc, v.memNeed)
					if c.canPlace(j.Nodes, j.memNeed) {
						v.forceStore = false
					} else {
						c.unreserve(v.Alloc, v.memNeed)
					}
				}
			}
		}
		for _, v := range trial {
			if !v.forceStore {
				c.unreserve(v.Alloc, v.memNeed) // trial reservation only
			}
		}
	})
	if !admitted {
		for _, v := range victims {
			v.forceStore = false
		}
		return preemptNotAdmitted // even suspending every eligible gang would not admit j
	}
	j.wavePending = true
	j.waveLeft = int32(len(victims))
	for _, v := range victims {
		v.waveFor = j
		s.beginCheckpoint(v)
	}
	return preemptWave
}

// beginCheckpoint banks the victim's progress, schedules its drain —
// on the write direction of the shared store link, or bus-only into
// host RAM when the suspend-to-host tier applies — re-keys its
// completion event in the running set to the drain end, and marks it
// preempting; complete() re-enqueues it when the drain event fires. v
// must be in the running set (a job just popped is added back first).
//
// Store-drain pricing is bandwidth-contended: every checkpoint writes
// its image over the same Gigabit link to the checkpoint store, so
// concurrent drains serialize on the link's write timeline rather than
// each assuming the full link — N simultaneous checkpoints take the
// sum of their transfer times, not the maximum. The victim holds its
// gang through both the queue wait and the transfer (its image is not
// captured until the link picks it up), and both are charged as
// checkpoint overhead. Host drains skip the link: each gang's readback
// rides its own AGP bus, so concurrent host suspensions run in
// parallel.
func (s *Scheduler) beginCheckpoint(v *Job) {
	// The tier decision reads the read-reservation fields (a gang
	// mid-store-restore has no state in RAM to suspend), so settle it
	// before the refund logic clears them.
	hostTier := s.hostEligible(v) && !v.forceStore
	v.forceStore = false
	v.ckptDue, v.ckptSlice = false, 0 // the drain supersedes any armed proactive bank
	s.bankProgress(v)
	var start, cost time.Duration
	if hostTier {
		cost = s.cfg.HostSuspendCost(v)
		start = s.now
		v.overhead += cost
		v.hostDrain = true
		s.ctr.HostSuspends++
	} else {
		cost = s.cfg.CheckpointCost(v)
		start = s.bookDrain(v, cost)
	}
	v.preempting = true
	// The drain rewrites the completion event: re-key the running set.
	s.running.del(v.End, v.ID)
	v.End = start + cost
	s.running.add(v)
	s.ckptInFlight++
	if v.slicing {
		s.ctr.SliceEvents++
	} else {
		s.ctr.PreemptEvents++
	}
	if s.rec != nil {
		s.record(Event{Time: s.now, Kind: EvDrainBegin, Job: v.ID, From: s.now, To: start + cost,
			Alloc: v.Alloc.Ranges, Detail: drainDetail(hostTier, v.slicing)})
		if !hostTier {
			s.record(Event{Time: s.now, Kind: EvStoreWrite, Job: v.ID, From: start, To: start + cost, Detail: "drain"})
		}
	}
}

// bookDrain books a store drain of cost for j, a gang that holds its
// nodes until the image is written: the transfer queues behind earlier
// writes on the link, and both the wait and the transfer are charged as
// checkpoint overhead. It returns the instant the transfer starts.
func (s *Scheduler) bookDrain(j *Job, cost time.Duration) time.Duration {
	start := s.link.reserveWrite(s.now, cost)
	s.ctr.DrainWait += start - s.now
	if s.met != nil {
		s.met.drainWait.Observe((start - s.now).Seconds())
	}
	j.overhead += (start - s.now) + cost
	return start
}

// refundRestore settles the restore prefix of a running segment
// interrupted at the current instant — a checkpoint drain beginning, a
// mid-run Cancel, or a fault — and returns the execution time the
// segment held. A gang cut off mid-restore never ran the reload, so the
// part of the prefix that never elapsed comes off the overhead charge —
// the gang stops holding nodes at this instant, keeping busy time
// exactly true work plus charged overhead plus lost work. A store
// restore also gives its link slot back: the untransferred tail frees
// for the next restore, and queue wait that was charged but never
// served comes off the contention statistic.
func (s *Scheduler) refundRestore(v *Job) time.Duration {
	elapsed := s.now - v.segStart - v.segRestore
	if elapsed < 0 {
		v.overhead += elapsed
		if v.readEnd > 0 {
			// Unserved queue wait comes off the contention statistic,
			// capped at what this segment was actually charged (a
			// migrating job's wait clock only started after its
			// outbound write leg).
			if refund := v.readStart - s.now; refund > 0 {
				if refund > v.readWait {
					refund = v.readWait
				}
				s.ctr.RestoreWait -= refund
			}
			s.link.releaseRead(v.readStart, v.readEnd, s.now)
			if s.rec != nil {
				s.record(Event{Time: s.now, Kind: EvStoreRead, Job: v.ID, From: v.readStart, To: s.now, Detail: "cancel"})
			}
		}
		elapsed = 0
	}
	v.readStart, v.readEnd, v.readWait = 0, 0, 0
	return elapsed
}

// bankProgress settles a running segment a checkpoint drain or a
// mid-run Cancel interrupted: the restore refund, then the work the
// segment completed credited against workLeft/doneWork.
func (s *Scheduler) bankProgress(v *Job) {
	done := time.Duration(float64(s.refundRestore(v)) / s.trunkFactor(v.Alloc.CrossesTrunk))
	if done > v.workLeft {
		done = v.workLeft
	}
	v.workLeft -= done
	v.doneWork += done
}

// loseProgress settles a running segment a fault cut off: the same
// restore refund, but the work elapsed since the last banked boundary
// is *lost*, not banked — the job redoes it from its checkpoint, and the
// wall time its gang already held lands in Report.LostWork, keeping busy
// time exactly work + overhead + lost work.
func (s *Scheduler) loseProgress(v *Job) {
	elapsed := s.refundRestore(v)
	v.lostWork += elapsed
	s.ctr.LostWork += elapsed
}

// drainDetail names a drain's tier and cause with constant strings
// (the recorder hot path must not allocate).
func drainDetail(hostTier, slicing bool) string {
	switch {
	case hostTier && slicing:
		return "host slice"
	case hostTier:
		return "host preempt"
	case slicing:
		return "store slice"
	}
	return "store preempt"
}

// requeuePreempted finishes a checkpoint drain: captures the workload
// snapshot (when the executor can), prices the future restore, and puts
// the job back in the queue with its progress banked.
func (s *Scheduler) requeuePreempted(j *Job) {
	s.ckptInFlight--
	j.preempting = false
	if j.slicing {
		j.slices++
		j.slicing = false
	} else {
		j.preempts++
	}
	j.leaveWave()
	if j.canceled {
		// Cancel hit the job while its checkpoint was draining: the
		// drain had to land (the nodes and the link slot were already
		// committed), but the image is discarded instead of requeued.
		s.finishCanceled(j)
		return
	}
	s.captureImage(j)
	if !j.hostDrain {
		j.restoreCost = s.cfg.RestoreCost(j)
		s.requeue(j, "store")
		return
	}
	// Suspend-to-host: the image stays resident in the gang's node RAM.
	// The nodes are free for other gangs, but the image pins its
	// footprint until the job resumes (cheap, bus-only) or a
	// memory-squeezed waiter forces a demotion to the store.
	j.hostDrain = false
	j.hostImage = true
	s.cfg.Cluster.reserve(j.Alloc, j.memNeed)
	j.restoreCost = s.cfg.HostResumeCost(j)
	if s.rec != nil {
		s.record(Event{Time: s.now, Kind: EvHostSuspend, Job: j.ID, Alloc: j.Alloc.Ranges})
	}
	s.requeue(j, "host")
}

// requeue puts j back in the queue after its segment ended early, detail
// naming where its image waits ("store", "host") or why it has none
// ("fault").
func (s *Scheduler) requeue(j *Job, detail string) {
	j.State = Queued
	s.pending.push(j)
	if s.rec != nil {
		s.record(Event{Time: s.now, Kind: EvRequeue, Job: j.ID, Detail: detail})
	}
}

// leaveWave settles the preemption wave j's drain belonged to: when the
// beneficiary's last victim finishes draining, it may trigger a fresh
// wave if it is still blocked (e.g. a backfill took the freed nodes).
func (j *Job) leaveWave() {
	b := j.waveFor
	if b == nil {
		return
	}
	j.waveFor = nil
	if b.waveLeft > 0 {
		b.waveLeft--
	}
	if b.waveLeft == 0 {
		b.wavePending = false
	}
}

// priceStoreRestore prices j's next dispatch as a full store restore,
// or as none when it has banked no work to reload.
func (s *Scheduler) priceStoreRestore(j *Job) {
	j.restoreCost = 0
	if j.doneWork > 0 {
		j.restoreCost = s.cfg.RestoreCost(j)
	}
}

// captureImage has an attached Checkpointer advance j's workload to the
// share of its steps the banked work covers — never behind an image
// already captured — and keeps the image a drain or a bank just wrote.
func (s *Scheduler) captureImage(j *Job) {
	ck, ok := s.cfg.Execute.(Checkpointer)
	if !ok {
		return
	}
	steps := j.ResolvedSteps()
	done := int((1 - float64(j.workLeft)/float64(j.workTotal)) * float64(steps))
	if prev := j.snapshot; prev != nil && done < prev.Steps {
		done = prev.Steps // never rewind a captured image
	}
	snap, err := ck.Checkpoint(j, j.snapshot, min(done, steps))
	if err != nil {
		snap = nil // image lost: resume restarts from scratch
	}
	j.snapshot = snap
}

// drainEstimate prices the drain a checkpoint of r started now would
// take, including the write-link queue wait for a store drain — the
// futile-suspension guards compare it to the victim's natural yield
// point.
func (s *Scheduler) drainEstimate(r *Job) time.Duration {
	if s.hostEligible(r) {
		return s.cfg.HostSuspendCost(r)
	}
	return s.storeDrainEstimate(r)
}

// storeDrainEstimate prices a store-tier drain of r started now: the
// write-direction queue wait plus the full checkpoint transfer. The
// forceStore flip sites re-check futility against this tariff.
func (s *Scheduler) storeDrainEstimate(r *Job) time.Duration {
	return s.link.writeDelay(s.now) + s.cfg.CheckpointCost(r)
}

// storeWriteLeg prices moving r's image out of host RAM into the
// checkpoint store: the full checkpoint cost minus the bus-only drain
// already paid at suspension — with the default model, exactly the
// store transfer the suspension skipped. Shared by demotions and the
// outbound leg of a migration so the same physical write can never be
// priced two ways.
func (s *Scheduler) storeWriteLeg(r *Job) time.Duration {
	return max(s.cfg.CheckpointCost(r)-s.cfg.HostSuspendCost(r), 0)
}

// hostEligible reports whether a checkpoint of r can stay in host RAM:
// the suspend-to-host tier is on, r's state is actually on its nodes,
// and every node of r's gang has room for the image alongside whatever
// earlier suspensions already pinned.
func (s *Scheduler) hostEligible(r *Job) bool {
	if !s.cfg.SuspendToHost {
		return false
	}
	// A gang still inside its restore prefix with a store read booked
	// has no complete state on its nodes — the authoritative image is
	// in the store (or mid-transfer to it, for a migration's write
	// leg), so there is nothing to suspend into RAM. Its checkpoint
	// takes the store path, whose drain pricing stands either way.
	if r.readEnd > 0 && s.now < r.segStart+r.segRestore {
		return false
	}
	for _, nr := range r.Alloc.Ranges {
		for i := nr.First; i < nr.First+nr.Count; i++ {
			if s.cfg.Cluster.avail(i) < r.memNeed {
				return false
			}
		}
	}
	return true
}
