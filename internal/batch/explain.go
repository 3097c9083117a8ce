package batch

import (
	"fmt"
	"strings"
	"time"
)

// Decision explainability: with a Recorder attached, every scheduling
// pass classifies each queued, arrived job it scanned and skipped by
// the obstacle that actually applied at that instant, bumps that
// reason's counter in the job's own row and records one EvBlocked
// event. Explanations are read from the counter row in O(1) whatever
// the run's length; the events are for recorders that
// keep the full stream (MemRecorder). The classification runs only
// when a recorder is attached — the hot path with observability off
// never pays for it — and reads the same state the scheduling decision
// just read, so the counted reason is the decision's reason, not a
// reconstruction.

// BlockReason classifies why a queued job did not start on a pass.
type BlockReason uint8

const (
	// ReasonNone is the zero value; it never appears in the stream.
	ReasonNone BlockReason = iota
	// ReasonHeadOfLine: under FIFO only the queue head may start, and
	// the head is blocked ahead of this job.
	ReasonHeadOfLine
	// ReasonNoPlacement: no candidate node set seats the gang — not
	// enough free nodes.
	ReasonNoPlacement
	// ReasonMemoryPinned: free nodes exist for the gang, but
	// suspended-to-host images pin their memory below the job's
	// per-node footprint.
	ReasonMemoryPinned
	// ReasonShadow: a backfill candidate whose remaining estimate
	// (plus restore charges) would overrun the blocked head's
	// reservation.
	ReasonShadow
	// ReasonLinkBusy: the candidate fits the shadow on transfer cost
	// alone, but the store link's queue delay ahead of its restore
	// pushes it past the reservation.
	ReasonLinkBusy
	// ReasonFutileCheckpoint: preemption found victims, but each would
	// finish (or yield) before its contended checkpoint drain would,
	// so suspending them frees nothing sooner.
	ReasonFutileCheckpoint
	// ReasonAntiThrash: lower-priority gangs are running, but the
	// discipline order ranks them ahead of this job (fair-share's
	// anti-thrash rule), so preemption refuses to evict them.
	ReasonAntiThrash
	// ReasonWaveDraining: a preemption wave is draining on this job's
	// behalf — it waits for its victims' checkpoints to land.
	ReasonWaveDraining
	// ReasonEvicting: the job's own host image is mid-eviction; it
	// cannot start before the write settles.
	ReasonEvicting
	// ReasonReservation: the conservative profile holds this job to a
	// reserved future slot (From on the event is the reserved start).
	ReasonReservation
	// ReasonFault: the gang does not fit the machine that remains while
	// injected faults hold capacity down — downed nodes, or a severed
	// trunk refusing every crossing placement.
	ReasonFault
	numBlockReasons
)

// blockReasonNames is indexed by BlockReason.
var blockReasonNames = [...]string{
	ReasonNone:             "none",
	ReasonHeadOfLine:       "head-of-line",
	ReasonNoPlacement:      "no-placement",
	ReasonMemoryPinned:     "memory-pinned",
	ReasonShadow:           "shadow",
	ReasonLinkBusy:         "link-busy",
	ReasonFutileCheckpoint: "futile-checkpoint",
	ReasonAntiThrash:       "anti-thrash",
	ReasonWaveDraining:     "wave-draining",
	ReasonEvicting:         "evicting",
	ReasonReservation:      "reserved",
	ReasonFault:            "fault",
}

func (r BlockReason) String() string {
	if int(r) < len(blockReasonNames) {
		return blockReasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// beginPass numbers a scheduling pass for EvBlocked events. The
// counter advances whether or not a recorder is attached, so pass
// numbers stay comparable when one is attached mid-study.
func (s *Scheduler) beginPass() int {
	s.passes++
	return s.passes
}

// blockRow counts one job's blocked passes by reason. A job points at
// its row, which exists only when a recorder is attached — the
// nil-recorder drain pays for the pointer alone — and goes where the job
// goes: a scheduler that forgets a job (retire.go) keeps no row for it.
type blockRow [numBlockReasons]uint32

// explain counts one blocked pass against j and records its EvBlocked
// event; at carries the shadow or reservation bound when one applies
// (zero otherwise). Callers on the hot path guard with s.rec != nil
// before doing any classification work; the guard here keeps misuse
// harmless.
func (s *Scheduler) explain(pass int, j *Job, reason BlockReason, at time.Duration) {
	if s.rec == nil {
		return
	}
	j.blocked[reason]++
	s.record(Event{Time: s.now, Kind: EvBlocked, Job: j.ID, Pass: pass, Reason: reason, From: at})
}

// explainRest records ReasonHeadOfLine for every job in rest — the FIFO
// tail behind a blocked head.
func (s *Scheduler) explainRest(pass int, rest []*Job) {
	if s.rec == nil {
		return
	}
	for _, j := range rest {
		if j != nil {
			s.explain(pass, j, ReasonHeadOfLine, 0)
		}
	}
}

// explainHead classifies a blocked queue head: the preemption outcome
// wins when it names a specific guard (a wave it is waiting on, the
// futile-checkpoint rule, fair-share anti-thrash); otherwise the
// placement probe decides.
func (s *Scheduler) explainHead(pass int, j *Job, out preemptOutcome) {
	if s.rec == nil {
		return
	}
	var reason BlockReason
	switch out {
	case preemptWave, preemptBarred:
		reason = ReasonWaveDraining
	case preemptFutile:
		reason = ReasonFutileCheckpoint
	case preemptAntiThrash:
		reason = ReasonAntiThrash
	default:
		reason = s.classifyStart(j)
	}
	s.explain(pass, j, reason, 0)
}

// explainBackfillFail classifies a backfill candidate that was offered
// the machine and refused: either no placement seats it at all, its
// memory is pinned by resident images, or every placement fits but
// overruns the head's reservation — with the link-queue delay split
// out from the pure shadow violation.
func (s *Scheduler) explainBackfillFail(pass int, j *Job, shadow time.Duration) {
	if s.rec == nil {
		return
	}
	reason := s.classifyStart(j)
	if reason == ReasonShadow {
		reason = s.shadowOrLinkBusy(j, shadow)
	}
	s.explain(pass, j, reason, shadow)
}

// shadowOrLinkBusy refines a shadow violation: when the candidate
// would fit the reservation if its restore skipped the store link's
// queue, the link is the binding constraint.
func (s *Scheduler) shadowOrLinkBusy(j *Job, shadow time.Duration) BlockReason {
	if j.restoreCost > 0 && s.restorePrefix(j) > j.restoreCost &&
		s.now+j.restoreCost+j.estLeft() <= shadow {
		return ReasonLinkBusy
	}
	return ReasonShadow
}

// classifyStart explains a failed placement attempt at the current
// instant: distinguishes "no node set seats the gang" from "free nodes
// exist but suspended images pin the memory" from "placeable, so
// something else (a backfill limit) refused it". Runs the same
// placement probe the decision ran, with the job's own image lifted.
func (s *Scheduler) classifyStart(j *Job) BlockReason {
	c := s.cfg.Cluster
	reason := ReasonNoPlacement
	s.withOwnImageLifted(j, func() {
		switch {
		case c.canPlace(j.Nodes, j.memNeed):
			reason = ReasonShadow
		case c.placeableIgnoringMemory(j.Nodes):
			reason = ReasonMemoryPinned
		case c.downCount > 0 || c.trunkDown:
			// Would the gang seat if the faults lifted? Probe with downed
			// nodes freed and the trunk restored: if yes, the injected
			// faults are the binding constraint.
			if c.trunkDown {
				c.trunkDown = false
				defer func() { c.trunkDown = true }()
			}
			mark := len(c.probeLog)
			defer c.probeUndo(mark)
			for i, d := range c.down {
				if d {
					c.probeFree(NodeRange{First: i, Count: 1})
				}
			}
			if c.canPlace(j.Nodes, j.memNeed) || c.placeableIgnoringMemory(j.Nodes) {
				reason = ReasonFault
			}
		}
	})
	return reason
}

// BlockCount is one reason's share of a job's blocked passes.
type BlockCount struct {
	Reason BlockReason
	Passes int
}

// Explanation is a job's blocked-pass record: how many passes scanned
// and skipped it, split by reason.
type Explanation struct {
	// JobID is the explained job.
	JobID int
	// BlockedPasses is the total number of passes that skipped the job.
	BlockedPasses int
	// Counts lists the per-reason pass counts, most frequent first
	// (ties broken by reason order, so the split is deterministic).
	Counts []BlockCount
}

// Dominant returns the most frequent blocker, or ReasonNone for a job
// never blocked.
func (e Explanation) Dominant() BlockReason {
	if len(e.Counts) == 0 {
		return ReasonNone
	}
	return e.Counts[0].Reason
}

// String renders the per-pass blocker breakdown.
func (e Explanation) String() string {
	if e.BlockedPasses == 0 {
		return fmt.Sprintf("job %d: never blocked (started on first eligible pass)", e.JobID)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "job %d: blocked on %d scheduler passes:", e.JobID, e.BlockedPasses)
	for _, c := range e.Counts {
		fmt.Fprintf(&b, " %s=%d", c.Reason, c.Passes)
	}
	return b.String()
}

// explanationOf renders job jobID's counter row — empty (never blocked)
// for a nil row, which is every job's when no recorder was attached.
func explanationOf(row *blockRow, jobID int) Explanation {
	e := Explanation{JobID: jobID}
	if row == nil {
		return e
	}
	for r, n := range row {
		if n == 0 {
			continue
		}
		e.BlockedPasses += int(n)
		// Insert behind every count at least as large: most frequent
		// first, equal counts in reason order.
		k := len(e.Counts)
		e.Counts = append(e.Counts, BlockCount{})
		for ; k > 0 && e.Counts[k-1].Passes < int(n); k-- {
			e.Counts[k] = e.Counts[k-1]
		}
		e.Counts[k] = BlockCount{Reason: BlockReason(r), Passes: int(n)}
	}
	return e
}

// Explain returns the report's blocked-pass record for one job — empty
// (never blocked) when no recorder was attached to the run, and for a
// job the report no longer lists (Report.Jobs).
func (r Report) Explain(jobID int) Explanation { return explanationOf(r.blocked[jobID], jobID) }
