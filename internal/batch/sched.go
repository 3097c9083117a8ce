package batch

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Forever is a virtual instant past every event: RunUntil(Forever)
// drains the scheduler completely, and a VirtualClock reads it so the
// engine never waits on wall time.
const Forever = time.Duration(math.MaxInt64)

// Policy selects the queue discipline.
type Policy int

const (
	// FIFO starts jobs strictly in queue order: when the head job does
	// not fit, everything behind it waits (head-of-line blocking).
	FIFO Policy = iota
	// Backfill is EASY backfilling: when the head job does not fit, the
	// scheduler computes its shadow start time (the earliest instant a
	// contiguous gang frees up, trusting running jobs' estimates) and
	// lets smaller jobs jump ahead if their own estimate finishes
	// before the shadow — so the reservation is never delayed, unless a
	// backfilled job overruns its estimate (exactly the real-world
	// failure mode).
	Backfill
	// Conservative is conservative backfilling: every queued job gets a
	// reservation against a capacity profile of running jobs and
	// earlier reservations, not just the blocked head. A job may start
	// out of order only if its reserved slot begins now, so no earlier
	// job's reservation is ever pushed back by a backfill. A scheduling
	// event re-plans the reservations from the first job whose inputs
	// changed (see conservative.go for the rule, and for exactly when
	// the first promise is a hard start-time bound).
	Conservative
	// FairShare is EASY backfilling over a fair-share queue order: each
	// user's historical usage (node-seconds, exponentially decayed with
	// Config.FairShareHalfLife) sorts the queue ascending, so
	// light-usage users jump heavy ones regardless of submission order.
	FairShare
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Backfill:
		return "easy"
	case Conservative:
		return "conservative"
	case FairShare:
		return "fairshare"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps a CLI string to a Policy. "backfill" is accepted as
// a legacy alias for "easy".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fifo":
		return FIFO, nil
	case "easy", "backfill":
		return Backfill, nil
	case "conservative":
		return Conservative, nil
	case "fairshare":
		return FairShare, nil
	}
	return 0, fmt.Errorf("batch: unknown policy %q (want fifo, easy, conservative, or fairshare)", s)
}

// Policies lists every queue discipline, in comparison-report order.
func Policies() []Policy { return []Policy{FIFO, Backfill, Conservative, FairShare} }

// Executor runs a job's workload on its allocated gang. Implementations
// do real (wall-clock) work; the job's virtual runtime still comes from
// the estimate path so the event loop stays deterministic.
type Executor interface {
	// Execute runs the job and returns a result summary for the report.
	// An error marks the job Failed; it still holds its allocation for
	// the full runtime.
	Execute(j *Job, a Allocation) (detail string, err error)
}

// Config assembles a scheduler.
type Config struct {
	// Cluster is the machine to schedule onto. Required.
	Cluster *Cluster
	// Policy selects the queue discipline: FIFO, Backfill (EASY),
	// Conservative, or FairShare.
	Policy Policy
	// BackfillDepth bounds how many queued candidates one backfill pass
	// examines behind the blocked head (the EASY and fair-share
	// disciplines): once that many arrived jobs have been considered,
	// the pass stops scanning. Deep queues make unbounded scans
	// quadratic — a million-job backlog costs a million probes per pass
	// for a handful of possible starts — and production schedulers cap
	// exactly this (cf. SLURM's bf_max_job_test). Zero means unlimited,
	// preserving the exhaustive legacy behavior; the depth only prunes
	// scan effort, it never reorders starts within the examined prefix.
	BackfillDepth int
	// Estimate supplies a runtime estimate for jobs submitted with
	// Est == 0; nil defaults to a PerfEstimator over the paper's
	// hardware model. Submit refuses a job estimated at Forever, what
	// PerfEstimator answers when the steps overflow a Duration.
	Estimate func(*Job) time.Duration
	// Actual maps a job's estimate to its true runtime (e.g. a
	// deterministic jitter so estimates are imperfect, as in real
	// traces); nil means runtimes equal estimates.
	Actual func(j *Job, est time.Duration) time.Duration
	// TrunkSlowdown multiplies the runtime of gangs whose node range
	// spans the stacking trunk (Section 4.3's contention knee seen from
	// the scheduler's seat). Values <= 0 or == 1 disable it.
	TrunkSlowdown float64
	// Preempt enables priority preemption: a blocked job may suspend
	// running jobs of strictly lower priority through the
	// checkpoint/restart protocol (see preempt.go). The victims drain a
	// checkpoint (CheckpointCost), re-enter the queue with their saved
	// progress, and pay RestoreCost when they are dispatched again.
	Preempt bool
	// Quantum enables time-sliced gang scheduling: a resident gang that
	// has run a full quantum of work is suspended through the same
	// checkpoint/restart protocol whenever a waiting job that outranks
	// it in the discipline order could be placed on its nodes, and
	// re-enters the queue stamped behind every such waiter — so gangs
	// contending for the same nodes share them round-robin instead of
	// running to completion. A gang with no eligible waiter keeps its
	// nodes (its slice is extended in place, no overhead charged).
	// Each slice grants a full quantum of execution after the restore
	// charge, so progress per slice is bounded below and every mix
	// drains regardless of how the quantum compares to the
	// checkpoint/restore cost. <= 0 disables time-slicing.
	Quantum time.Duration
	// Faults injects a failure schedule (fault.go): node crashes with
	// repair times and whole-trunk outages become first-class events in
	// the virtual-time loop. A crash kills every resident gang on the
	// node; killed jobs restart from their last banked History boundary
	// and the work destroyed since it is accounted in Report.LostWork.
	// Nil or empty disables injection at zero cost.
	Faults *FaultPlan
	// CheckpointInterval enables periodic proactive checkpointing under
	// fault injection: a running gang banks its progress (a checkpoint
	// drain after which it keeps running on its nodes) whenever the
	// interval elapses since its segment start, bounding the work a
	// crash can destroy — the classic optimal-interval tradeoff between
	// drain overhead and expected lost work. Only consulted when Faults
	// is non-empty, so a fault-free run is bit-identical with the knob
	// on or off. <= 0 disables proactive banking.
	CheckpointInterval time.Duration
	// CheckpointCost prices draining one job's per-node workload image
	// at preemption; nil uses DefaultCheckpointCost over the paper's
	// hardware model (AGP readback plus a Gigabit write to the
	// checkpoint store).
	CheckpointCost func(*Job) time.Duration
	// RestoreCost prices reloading a checkpointed image at the next
	// dispatch; nil uses DefaultRestoreCost.
	RestoreCost func(*Job) time.Duration
	// StoreDuplex selects how the checkpoint store link's read and
	// write directions share the wire: FullDuplex (the zero value)
	// gives drains and restores independent timelines; HalfDuplex
	// serializes both directions on one.
	StoreDuplex Duplex
	// SuspendToHost enables the in-memory suspension tier: a victim
	// whose checkpoint image fits in its nodes' free host memory
	// suspends into RAM — bus-only drain and resume, no store
	// round-trip — with the image pinning its footprint on those nodes
	// until the job resumes or memory pressure demotes the image to
	// the store (see suspend.go).
	SuspendToHost bool
	// HostSuspendCost prices the bus-only drain of a suspend-to-host
	// checkpoint; nil uses DefaultHostSuspendCost (AGP readback).
	HostSuspendCost func(*Job) time.Duration
	// HostResumeCost prices resuming a host-resident image; nil uses
	// DefaultHostResumeCost (AGP download).
	HostResumeCost func(*Job) time.Duration
	// FairShareHalfLife is the virtual-time half-life of per-user usage
	// decay under the FairShare policy; <= 0 means 30 minutes.
	FairShareHalfLife time.Duration
	// Execute optionally runs each job's workload for real when it
	// completes. Executors that also implement Checkpointer run
	// preempted jobs in segments with genuine state snapshots. Leave
	// nil for pure virtual-time scheduling studies.
	Execute Executor
	// Recorder receives one typed Event per lifecycle transition and
	// one EvBlocked per queued job a scheduling sweep skips (obs.go), and
	// attaching one switches on the per-job blocked-pass counters that
	// Explain reads (explain.go). Nil disables both at zero cost on the
	// hot path — the zero-alloc guard in obs_test.go pins exactly that.
	Recorder Recorder
	// Metrics is the registry the scheduler publishes counters,
	// gauges, and histograms into (metrics.go); series carry the
	// policy label. Nil disables publication.
	Metrics *Registry
}

// Scheduler drives the job lifecycle on a virtual clock: Submit stamps
// arrivals, Run (or the incremental Step/RunUntil that Engine wraps)
// drains the queue event by event — job completions, checkpoint
// settlements, and future arrivals — placing jobs per the configured
// policy. Its state is the cluster with its free-range index,
// the queue of arrived jobs, the running set — one slice sorted by
// completion event, which is both the loop's event queue and the
// capacity profile behind shadow and reservation queries — and a heap
// of future arrivals (index.go). A queued job is in exactly one of the
// queue and the heap: the clock move that reaches its arrival moves it
// from the heap into the queue (advance).
type Scheduler struct {
	cfg          Config
	now          time.Duration
	pending      queue     // arrived jobs waiting to start
	running      endList   // the running set, sorted by completion event (index.go)
	finished     []*Job    // terminal jobs still held: all of them, or none once a Retirer takes them (retire.go)
	tot          JobTotals // what the jobs already retired add to a report (report.go); zero with no Retirer
	retirer      Retirer   // where terminal jobs go instead of finished; nil = keep them (retire.go)
	nextID       int
	ctr          Counters             // the run's totals, as Report publishes them (report.go)
	ckptInFlight int                  // gangs currently draining checkpoints
	link         storeLink            // shared checkpoint-store link (read+write timelines)
	demoting     []*Job               // host images mid-eviction (reservation held to demoteEnd)
	pinned       []pin                // migration pins: home RAM held until the outbound write settles
	usage        map[string]*usage    // per-user decayed accounting (fairshare.go)
	fsEpoch      time.Duration        // reference instant for fair-share sort keys (fairshare.go)
	arrivals     arrivalHeap          // future arrivals, earliest first (index.go)
	byID         map[int]*Job         // every job submitted and not retired, by assigned ID (Cancel, JobByID)
	less         func(a, b *Job) bool // jobLess, bound once (no per-pass closure)
	rec          Recorder             // lifecycle event sink; nil = recording off (obs.go)
	met          *schedMetrics        // typed metric handles; nil = metrics off (metrics.go)
	passes       int                  // scheduling sweeps taken, restarted ones included (EvBlocked pass numbers)
	searches     int                  // conservative profile searches: reservations not reused from the last sweep
	prof         profile              // the conservative pass's capacity profile, rebuilt in place per sweep
	plan         plan                 // the last conservative sweep's reservations, reused while valid (conservative.go)
	faultEvs     []faultEvent         // compiled fault schedule, sorted (fault.go)
	faultIdx     int                  // next fault event to apply
	downSince    []time.Duration      // per node: instant it went down, -1 while up
	downUntil    []time.Duration      // per node: scheduled repair instant while down
	trunkBack    time.Duration        // scheduled end of the active trunk outage
	downTime     time.Duration        // total node-down time accrued so far
	// restartPerStart is set by tests only: every start then takes the
	// sweep's restart branch, as the pass did before it learnt to go on
	// past one — the oracle of TestSingleSweepMatchesRestartPerStart.
	restartPerStart bool
	// replanAll is set by tests only: every conservative sweep then
	// searches the profile for every job, as the pass did before it
	// learnt to reuse the last sweep's plan — the oracle of
	// TestConservativeReuseMatchesReplan.
	replanAll bool
}

// New validates cfg and returns an empty scheduler.
func New(cfg Config) *Scheduler {
	if cfg.Cluster == nil {
		panic("batch: Config.Cluster is required")
	}
	if cfg.Estimate == nil {
		est := NewPerfEstimator()
		cfg.Estimate = est.Estimate
	}
	// A cost hook's answer is a duration some transfer takes: clamped at
	// zero once here, so no charge, drain end or futility guard reads a
	// negative one. The defaults are never negative.
	costHook := func(f, def func(*Job) time.Duration) func(*Job) time.Duration {
		if f == nil {
			return def
		}
		return func(j *Job) time.Duration { return max(f(j), 0) }
	}
	cfg.CheckpointCost = costHook(cfg.CheckpointCost, DefaultCheckpointCost)
	cfg.RestoreCost = costHook(cfg.RestoreCost, DefaultRestoreCost)
	cfg.HostSuspendCost = costHook(cfg.HostSuspendCost, DefaultHostSuspendCost)
	cfg.HostResumeCost = costHook(cfg.HostResumeCost, DefaultHostResumeCost)
	s := &Scheduler{cfg: cfg, nextID: 1, usage: make(map[string]*usage), byID: make(map[int]*Job)}
	s.link.duplex = cfg.StoreDuplex
	s.less = s.jobLess
	s.rec = cfg.Recorder
	if cfg.Metrics != nil {
		s.met = newSchedMetrics(cfg.Metrics, cfg.Policy)
	}
	if evs := cfg.Faults.compile(cfg.Cluster.Size()); len(evs) > 0 {
		s.faultEvs = evs
		s.downSince = make([]time.Duration, cfg.Cluster.Size())
		s.downUntil = make([]time.Duration, cfg.Cluster.Size())
		for i := range s.downSince {
			s.downSince[i] = -1
		}
	}
	return s
}

// jobLess is the active queue discipline: fair-share usage (FairShare
// only), then priority descending, then the round-robin key (submit
// time, or the last slice-suspension instant for a gang suspended at a
// quantum boundary), then job ID — the final two legs make
// equal-priority ordering deterministic across replays.
func (s *Scheduler) jobLess(a, b *Job) bool {
	if s.cfg.Policy == FairShare {
		if ka, kb := a.acct.key, b.acct.key; ka != kb {
			return ka < kb
		}
	}
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if ka, kb := a.rrKey(), b.rrKey(); ka != kb {
		return ka < kb
	}
	return a.ID < b.ID
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Submit validates a job spec, resolves its runtime estimate, and
// queues it. Jobs may carry a future Submit time; a zero or past Submit
// arrives at the current clock. The caller's spec fields are never
// mutated: defaults (Steps, Problem) and the arrival clamp are resolved
// into scheduler-owned fields, so the same *Job specs can be replayed
// against a second scheduler — the clusterctl comparison pattern.
func (s *Scheduler) Submit(j *Job) error {
	if j.Nodes <= 0 {
		return fmt.Errorf("batch: %s requests %d nodes", j, j.Nodes)
	}
	if j.Nodes > s.cfg.Cluster.Size() {
		return fmt.Errorf("batch: %s requests %d nodes, cluster has %d",
			j, j.Nodes, s.cfg.Cluster.Size())
	}
	steps, problem, arrive := j.ResolvedSteps(), j.ResolvedProblem(), max(j.Submit, s.now)
	need := memoryNeed(j.Kind, problem, j.Nodes)
	if s.cfg.Cluster.NodesWithMem(need) < j.Nodes {
		return fmt.Errorf("batch: %s needs %d MB per node on %d nodes, cluster cannot grant that",
			j, need>>20, j.Nodes)
	}
	est := j.Est
	if est <= 0 {
		// The estimator gets a resolved view; the caller's spec stays
		// pristine. The copy escapes through the hook, so only this
		// branch builds (and heap-allocates) it.
		r := *j
		r.Steps, r.Problem, r.Submit = steps, problem, arrive
		if est = s.cfg.Estimate(&r); est == Forever {
			return fmt.Errorf("batch: %s: a runtime estimate of %d steps overflows", j, steps)
		}
	}
	est = max(est, time.Millisecond)
	j.ID = s.nextID
	s.nextID++
	s.byID[j.ID] = j
	// Reset every scheduler-owned lifecycle field: a replayed job must
	// not carry a previous schedule's outcome (a stale Err would mark
	// it Failed again without running).
	j.State = Queued
	j.Start, j.End = 0, 0
	j.Alloc = Allocation{}
	j.History = nil
	j.Detail, j.Err = "", nil
	j.jobState = jobState{arrive: arrive, memNeed: need, est: est}
	if s.cfg.Policy == FairShare {
		j.acct = s.account(j.User) // resolved once: jobLess compares keys without a map lookup
	}
	if s.rec != nil {
		// A fresh, zeroed counter row: a replayed spec starts its
		// explanation over as it does its lifecycle.
		j.blocked = new(blockRow)
	}
	if j.arrive > s.now {
		s.arrivals.push(j)
	} else {
		s.pending.push(j)
	}
	if s.rec != nil {
		// The display label is assembled before the hook call: hook
		// arguments stay constant/preallocated (recorderguard), and
		// the one allocation per submission happens off the
		// scheduling hot path, only with a recorder attached.
		label := fmt.Sprintf("%s (%s, %d nodes, prio %d, user %s)", j.Name, j.Kind, j.Nodes, j.Priority, j.User)
		s.record(Event{Time: s.now, Kind: EvSubmit, Job: j.ID, From: j.arrive, Detail: label})
	}
	if s.met != nil {
		s.met.submitted.Inc()
		s.met.queueDepth.Set(float64(s.queued()))
	}
	return nil
}

// queued counts every queued job, future arrivals included.
func (s *Scheduler) queued() int { return s.pending.len() + len(s.arrivals) }

// eachQueued visits every queued job: the queue's slots in slice order,
// then the future arrivals in heap order.
func (s *Scheduler) eachQueued(fn func(j *Job)) {
	for _, j := range s.pending.jobs {
		if j != nil {
			fn(j)
		}
	}
	for _, a := range s.arrivals {
		fn(a.job)
	}
}

// Run drains the queue to completion and returns the report. It may be
// called again after further submissions; the virtual clock keeps
// advancing monotonically. Events are job completions (including
// checkpoint drains and quantum boundaries), future arrivals, and
// demotion settlements — the instants an evicted host image finishes
// its store write and releases the memory it pinned. Run is a thin
// compatibility wrapper over the incremental core: it steps the event
// loop until no event remains — exactly the monolithic loop it
// replaced, event for event.
func (s *Scheduler) Run() Report {
	s.RunUntil(Forever)
	return s.report()
}

// Step runs one scheduling round and advances the virtual clock to the
// next engine event — a job completion (including checkpoint drains and
// quantum boundaries), a future arrival, or a demotion settlement —
// handling everything due at that instant. It returns false, without
// moving the clock, when no event remains: the queue is drained (or
// every pending job's arrival lies in the future of an externally
// driven clock — see RunUntil).
func (s *Scheduler) Step() bool {
	s.settleDemotions()
	s.applyFaults()
	s.schedulePass()
	t, ok := s.nextEvent()
	if !ok {
		return false
	}
	s.advance(t)
	return true
}

// RunUntil processes every event due at or before t, leaving the
// virtual clock at the last event handled (never at t itself — the
// timeline stays event-driven, and a job ingested later with a stamp
// between the last event and t is still a future arrival). This is the
// incremental entry point a real-time driver calls with its clock
// reading: if the driver overslept, every missed event is caught up in
// order, deterministically.
func (s *Scheduler) RunUntil(t time.Duration) {
	for {
		s.settleDemotions()
		s.applyFaults()
		s.schedulePass()
		next, ok := s.nextEvent()
		if !ok || next > t {
			return
		}
		s.advance(next)
	}
}

// nextEvent returns the earliest pending event instant: the soonest
// completion (which wins ties, exactly as the monolithic loop ordered
// its switch), future arrival, or demotion settlement. The next arrival
// is the arrival heap's top (TestArrivalHeapMatchesLinearScan
// cross-checks it against a scan of every queued job).
func (s *Scheduler) nextEvent() (time.Duration, bool) {
	tComplete := time.Duration(-1)
	if j := s.running.min(); j != nil {
		tComplete = j.End
	}
	tNext, hasNext := s.arrivals.next()
	if tDemote, ok := s.nextDemotion(); ok && (!hasNext || tDemote < tNext) {
		tNext, hasNext = tDemote, true
	}
	// Fault events drive the clock only while work is outstanding: an
	// idle scheduler does not tick through an empty storm tail, and
	// skipped events catch up in order when work arrives (applyFaults).
	if s.faultIdx < len(s.faultEvs) && s.outstandingWork() {
		if tF := s.faultEvs[s.faultIdx].at; !hasNext || tF < tNext {
			tNext, hasNext = tF, true
		}
	}
	switch {
	case tComplete >= 0 && (!hasNext || tComplete <= tNext):
		return tComplete, true
	case hasNext:
		return tNext, true
	}
	return 0, false
}

// advance moves the clock to t, admits the arrivals due at t into the
// queue — before any completion is handled, so a quantum boundary at t
// sees the waiters that arrived with it — and pops every completion
// event due at that instant (settlements need no handling beyond the
// clock move — the next scheduling pass sees them). No event is earlier
// than t, so popMin's "due by now" is "due at now".
func (s *Scheduler) advance(t time.Duration) {
	s.now = t
	for j := s.arrivals.popDue(s.now); j != nil; j = s.arrivals.popDue(s.now) {
		s.pending.insert(j, s.less)
	}
	for j := s.running.popMin(s.now); j != nil; j = s.running.popMin(s.now) {
		switch {
		case j.ckptDue && !j.preempting:
			s.ckptBoundary(j)
		case j.banking:
			s.bankSettle(j)
		case j.sliceEnd && !j.preempting:
			s.sliceBoundary(j)
		default:
			s.complete(j)
		}
	}
}

// outstandingWork reports whether any job still needs the clock: fault
// events only advance time while this holds (nextEvent).
func (s *Scheduler) outstandingWork() bool {
	return s.queued() > 0 || s.running.len() > 0 ||
		len(s.demoting) > 0 || len(s.pinned) > 0
}

// schedulePass starts every job the policy allows at the current
// instant. One sweep of the queue normally does it: a sweep goes on past
// its own starts and asks for a restart from the queue head only when a
// start changed something an earlier decision of the same sweep rested
// on (passOnce and conservativePass name the cases).
func (s *Scheduler) schedulePass() {
	// Under FairShare the cached queue order stays valid across pure
	// clock advance (every account decays by the same factor, see
	// usageOf); chargeUsage and push mark the queue dirty whenever the
	// order can actually change, so no re-sort is forced here.
	for {
		var t0 time.Time
		if s.met != nil {
			// The wall sample exists only for the pass-latency
			// histogram and never feeds a scheduling decision;
			// recorder-only runs (s.met == nil) take neither branch
			// and stay bit-for-bit deterministic.
			t0 = time.Now() //batchlint:allow determinism -- wall sampling is gated on an attached metrics registry and observes, never decides
		}
		var restart bool
		if s.cfg.Policy == Conservative {
			restart = s.conservativePass()
		} else {
			restart = s.passOnce()
		}
		if s.met != nil {
			s.met.passWall.Observe(time.Since(t0).Seconds()) //batchlint:allow determinism -- closes the registry-gated wall sample above; same guard, no decision taken on it
			wb, rb := s.link.backlog(s.now)
			s.met.writeBacklog.Set(wb.Seconds())
			s.met.readBacklog.Set(rb.Seconds())
			s.met.publish(s)
		}
		if !restart {
			return
		}
	}
}

// passOnce sweeps the queue once under FIFO, EASY, or fair-share,
// starting every job that may start, and reports whether the sweep must
// restart from the queue head. A head that starts changes nothing the
// sweep has decided: the next arrived job is the head. A backfill start
// leaves every candidate already refused refused — a start only shrinks
// the free set and only delays the store link — so the sweep goes on
// behind it unless the blocked head's own standing changed (headMoved).
// With a recorder attached, every arrived job a sweep examines and
// skips gets one EvBlocked event classifying the obstacle; without one,
// the walk behind a blocked head jumps each queue block whose summary
// refuses every job in it, counting its jobs as examined.
func (s *Scheduler) passOnce() bool {
	pass := s.beginPass()
	var blocked *Job // first eligible job that did not fit
	var shadow time.Duration
	scanned := 0 // backfill candidates examined behind the blocked head, this sweep's starts aside
	jobs := s.pending.ordered(s.less)
	base := s.pending.first // jobs[i] is queue slot base+i
	for i := 0; i < len(jobs); i++ {
		// ordered() summarized every block, and remove, the one queue
		// change a sweep makes, keeps its block's summary exact.
		if slot := base + i; blocked != nil && s.rec == nil && slot%scanBlock == 0 {
			if b := s.pending.blocks[slot/scanBlock]; b.refuses(s.cfg.Cluster.FreeNodes(), shadow-s.now) {
				scanned += b.live
				if depth := s.cfg.BackfillDepth; depth > 0 && scanned > depth {
					break
				}
				i += scanBlock - 1
				continue
			}
		}
		j := jobs[i]
		if j == nil {
			continue // tombstone
		}
		if blocked != nil {
			scanned++
			if depth := s.cfg.BackfillDepth; depth > 0 && scanned > depth {
				break // bounded backfill: the tail is not examined
			}
		}
		if blocked == nil && j.demoteEnd > s.now {
			// The queue head's image is mid-eviction: it cannot start
			// before the write settles, but it keeps the shadow
			// reservation — otherwise a lower-ranked job owns the
			// shadow for the eviction window and backfills admitted
			// under that later bound can squat on the head's nodes
			// far past its settlement. shadowStart models the
			// settlement events, so the shadow lands at demoteEnd or
			// the first sufficient capacity after it.
			s.explain(pass, j, ReasonEvicting, j.demoteEnd)
			if s.cfg.Policy == FIFO {
				s.explainRest(pass, jobs[i+1:])
				return false
			}
			blocked = j
			shadow = s.shadowStart(j)
			if !blocked.promised && shadow > s.now {
				blocked.promise, blocked.promised = shadow, true
			}
			continue
		}
		if j.demoteEnd > s.now {
			s.explain(pass, j, ReasonEvicting, j.demoteEnd)
			continue // backfill candidates must be startable now
		}
		if blocked == nil {
			if s.tryStart(j, false, 0, false) {
				if s.restartPerStart {
					return true
				}
				continue
			}
			// The head is blocked: preemption (if enabled) begins
			// checkpointing lower-priority gangs, and memory pressure
			// (if suspend-to-host is on) begins demoting host images,
			// before the shadow is computed — so the reservation
			// reflects the drained nodes.
			out := s.preemptFor(j)
			s.demoteFor(j)
			s.explainHead(pass, j, out)
			if s.cfg.Policy == FIFO {
				s.explainRest(pass, jobs[i+1:])
				return false // head-of-line blocking
			}
			blocked = j
			shadow = s.shadowStart(j)
			// shadowStart's degenerate fallback is s.now (resident
			// images nothing is evicting still pin the needed memory);
			// that is a backfill freeze, not a keepable reservation, so
			// it is never recorded as the job's promise.
			if !blocked.promised && shadow > s.now {
				blocked.promise, blocked.promised = shadow, true
			}
			continue
		}
		// Most of a deep scan is gangs wider than the free set: refuse
		// them before touching the estimate fields. With a recorder the
		// checks below run in their own order, which names the reason.
		if s.rec == nil && j.Nodes > s.cfg.Cluster.FreeNodes() {
			continue
		}
		// Backfill: only jobs whose remaining estimate (plus a pending
		// restore charge, including the read-link queue wait) drains
		// before the head's reservation may jump it (tryStart
		// re-checks with the allocation-dependent trunk stretch
		// applied).
		if s.now+s.restorePrefix(j)+j.estLeft() <= shadow {
			if s.tryStart(j, true, shadow, true) {
				if s.headMoved(blocked, shadow) {
					return true
				}
				scanned-- // a restarted sweep would not have counted the job it no longer holds
				continue
			}
			s.explainBackfillFail(pass, j, shadow)
		} else if s.rec != nil {
			s.explain(pass, j, s.shadowOrLinkBusy(j, shadow), shadow)
		}
	}
	return false
}

// headMoved re-evaluates the blocked head hd after a backfill start the
// way a sweep restarted from the head would — a fresh preemption and
// demotion attempt (neither for a head mid-eviction), then the shadow —
// and reports whether a checkpoint wave or a demotion began or the
// reservation moved (an Actual overrun past it, a migration pin that
// now settles).
func (s *Scheduler) headMoved(hd *Job, shadow time.Duration) bool {
	if s.restartPerStart {
		return true
	}
	if hd.demoteEnd <= s.now {
		draining, demotions := s.ckptInFlight, s.ctr.Demotions
		s.preemptFor(hd)
		s.demoteFor(hd)
		if s.ckptInFlight != draining || s.ctr.Demotions != demotions {
			return true
		}
	}
	return s.shadowStart(hd) != shadow
}

// restorePrefix estimates the non-work prefix a dispatch of j right now
// would carry ahead of its remaining runtime: the pending restore
// transfer plus, for a store-resident image, the current read-link
// queue delay. A host-resident image prices its cheap bus-only resume —
// optimistic if the home nodes turn out taken and the image must
// migrate over the store path, but tryStart re-checks the real prefix
// against the reservation per candidate.
func (s *Scheduler) restorePrefix(j *Job) time.Duration {
	if j.restoreCost <= 0 {
		return 0
	}
	if j.hostImage {
		return j.restoreCost
	}
	return s.link.readDelay(s.now) + j.restoreCost
}

// restorePrefixWorst is the pessimistic mirror for reservation slots:
// a host-resident image is priced at the migration path (outbound
// write leg, then the store read) in case its home nodes are occupied
// when the promised instant arrives — the conservative profile's
// "slot is always long enough" claim has to cover that dispatch too.
func (s *Scheduler) restorePrefixWorst(j *Job) time.Duration {
	if j.restoreCost <= 0 {
		return 0
	}
	if !j.hostImage {
		return s.link.readDelay(s.now) + j.restoreCost
	}
	readAvail := s.now + s.link.writeDelay(s.now) + s.storeWriteLeg(j)
	rStart := readAvail
	if s.link.readFree > rStart {
		rStart = s.link.readFree
	}
	prefix := rStart + s.cfg.RestoreCost(j) - s.now
	if j.restoreCost > prefix {
		prefix = j.restoreCost
	}
	return prefix
}

// tryStart attempts a gang placement for j at the current instant and,
// on success, fixes its segment runtime and pushes its completion
// event. The placement engine ranks every candidate node set; the first
// (best) one that survives the constraints wins. For backfill starts,
// limit is the blocked head's reservation: the scheduler-known trunk
// stretch of the candidate (plus any pending restore charge) must still
// drain before it, else the *next* candidate is tried — a start only
// fails when no placement works (only unknowable overruns, the Actual
// hook, may breach the EASY guarantee).
//
// A pending restore is priced against the store link's read timeline:
// the transfer queues behind earlier in-flight restores, the queue
// wait is charged to the job (and reported as RestoreWait), and the
// whole prefix — wait plus transfer — rides ahead of the segment's
// work. A host-resident image resumes bus-only when its home nodes are
// free and fit it; placed anywhere else it migrates over the store
// path, paying the full store restore on the read link.
func (s *Scheduler) tryStart(j *Job, backfilled bool, limit time.Duration, limited bool) bool {
	c := s.cfg.Cluster
	if c.FreeNodes() < j.Nodes {
		return false // cheap precheck before candidate enumeration
	}
	if j.hostImage {
		// The image's memory is j's own to spend: lift the reservation
		// for the trial so candidates overlapping the home nodes price
		// the RAM it would vacate.
		c.unreserve(j.Alloc, j.memNeed)
	}
	var alloc Allocation
	var prefix time.Duration   // restore wait + transfer ahead of the work
	var readCost time.Duration // store-read transfer to book on the link
	placed := false
	if j.hostImage && c.freeAndFits(j.Alloc, j.memNeed) {
		// Home resume: bus-only, no link traffic.
		if !limited || s.now+j.restoreCost+s.stretched(j.estLeft(), j.Alloc.CrossesTrunk) <= limit {
			home := candidate{ranges: j.Alloc.Ranges, crosses: j.Alloc.CrossesTrunk}
			alloc = c.commit(home)
			prefix, placed = j.restoreCost, true
		}
	}
	migrate := false
	var writeLeg time.Duration
	if !placed {
		cost := j.restoreCost
		if j.hostImage {
			// Migration: the image cannot teleport between nodes — it
			// drains out of the home RAM over the store's write
			// direction (the transfer its suspension skipped), then
			// rides back in as a full store restore on the read side;
			// a compressed demotion + restore, all charged to the
			// waiting gang.
			migrate = true
			cost = s.cfg.RestoreCost(j)
			writeLeg = s.storeWriteLeg(j)
		}
		readAvail := s.now // instant the image is in the store, ready to read
		if migrate {
			readAvail += s.link.writeDelay(s.now) + writeLeg
		}
		wait := time.Duration(0)
		if cost > 0 {
			rStart := readAvail
			if free := s.link.readFree; free > rStart {
				rStart = free
			}
			wait = rStart - s.now // everything ahead of the read transfer
		}
		cands := c.candidates(j.Nodes, j.memNeed)
		if s.met != nil {
			s.met.candidates.Add(float64(len(cands)))
		}
		for _, cand := range cands {
			if limited && s.now+wait+cost+s.stretched(j.estLeft(), cand.crosses) > limit {
				continue
			}
			alloc = c.commit(cand)
			prefix, readCost = wait+cost, cost
			placed = true
			break
		}
	}
	if !placed {
		if j.hostImage {
			c.reserve(j.Alloc, j.memNeed)
		}
		return false
	}
	j.readStart, j.readEnd, j.readWait = 0, 0, 0
	readAvail := s.now
	var migStart time.Duration
	if migrate {
		// The home RAM stays pinned until the outbound write settles.
		migStart = s.link.reserveWrite(s.now, writeLeg)
		s.ctr.DrainWait += migStart - s.now
		c.reserve(j.Alloc, j.memNeed)
		s.pinUntil(j.Alloc, j.memNeed, migStart+writeLeg)
		readAvail = migStart + writeLeg
	}
	j.hostImage = false
	if readCost > 0 {
		start := s.link.reserveRead(readAvail, readCost)
		j.readWait = start - readAvail
		s.ctr.RestoreWait += j.readWait
		j.readStart, j.readEnd = start, start+readCost
		if s.met != nil {
			s.met.restoreWait.Observe(j.readWait.Seconds())
		}
	}
	s.pending.remove(j)
	j.Alloc = alloc
	j.State = Running
	j.backfilled = backfilled
	if backfilled {
		s.ctr.Backfilled++
	}
	if len(j.History) == 0 {
		// First dispatch: fix the true total work. The Actual hook maps
		// the estimate to the real runtime (imperfect estimates); the
		// scheduler never reads workTotal for decisions, only workLeft
		// progress already banked.
		j.Start = s.now
		total := j.est
		if s.cfg.Actual != nil {
			total = s.cfg.Actual(j, j.est)
		}
		total = max(total, time.Millisecond)
		j.workTotal, j.workLeft = total, total
	}
	dur := max(prefix+time.Duration(float64(j.workLeft)*s.trunkFactor(j.Alloc.CrossesTrunk)), time.Millisecond)
	j.segStart, j.segRestore = s.now, prefix
	j.overhead += prefix
	j.restoreCost = 0
	j.wavePending = false
	j.End = s.now + dur
	s.armSlice(j)
	if s.rec != nil {
		ev := Event{Time: s.now, Kind: EvDispatch, Job: j.ID, From: s.now + prefix, Alloc: alloc.Ranges,
			Detail: dispatchDetail(backfilled, migrate, readCost > 0, prefix)}
		if backfilled && limited {
			ev.To = limit
		}
		s.record(ev)
		if migrate {
			s.record(Event{Time: s.now, Kind: EvStoreWrite, Job: j.ID, From: migStart, To: migStart + writeLeg, Detail: "migrate"})
		}
		if readCost > 0 {
			s.record(Event{Time: s.now, Kind: EvStoreRead, Job: j.ID, From: j.readStart, To: j.readEnd})
		}
	}
	s.running.add(j)
	return true
}

// armSlice fixes the event that ends j's freshly opened segment, whose
// completion j.End holds. Time-slicing: a segment outliving the quantum
// carries a slice-boundary event instead, with the restore charge riding
// ahead of the quantum so every slice banks a full quantum of execution.
// A segment reopened by a bank instead takes back the quantum boundary
// the bank displaced (ckptSlice): the slice clock keeps running through
// a bank, so proactive checkpointing never starves the round-robin
// rotation, and a drain that overshot the deadline yields at once. The
// next proactive bank is armed last.
func (s *Scheduler) armSlice(j *Job) {
	j.sliceEnd, j.sliceFull, j.slicing = false, 0, false
	if d := j.ckptSlice; d > 0 {
		j.ckptSlice = 0
		if d = max(d, s.now); d < j.End {
			j.sliceFull, j.End, j.sliceEnd = j.End, d, true
		}
	} else if q := s.cfg.Quantum; q > 0 && j.End-s.now > j.segRestore+q {
		j.sliceFull, j.End, j.sliceEnd = j.End, s.now+j.segRestore+q, true
	}
	s.armProactive(j)
}

// sliceBoundary handles a quantum-boundary event popped off the running
// set: if an arrived waiter that outranks the gang round-robin could
// be placed on its nodes, the gang suspends through the checkpoint
// protocol (stamped so it resumes after the waiters have had a turn);
// otherwise the slice is extended in place, free of charge.
//
// The futile-suspension guard mirrors preemptFor's: when the gang's
// remaining work would drain before its contended checkpoint does,
// running to completion frees the nodes sooner than suspending, so the
// boundary extends instead — a job whose runtime slightly exceeds a
// quantum multiple finishes its tail rather than paying a checkpoint,
// a store-link wait, and a restore to run it later.
func (s *Scheduler) sliceBoundary(j *Job) {
	futile := j.sliceFull-s.now <= s.drainEstimate(j)
	if !futile && s.sliceYields(j) {
		// sliceYields may have flipped the suspension to the store
		// tier (j's in-RAM image would pin the waiter's memory); the
		// futile rule must then hold at the store tariff too, or the
		// forced drain frees the nodes later than just running out
		// the tail would.
		if j.forceStore && j.sliceFull-s.now <= s.storeDrainEstimate(j) {
			j.forceStore = false
		} else {
			j.sliceEnd, j.slicing = false, true
			j.rrStamp = s.now // resume after the waiters that outranked us here
			if s.rec != nil {
				s.record(Event{Time: s.now, Kind: EvSliceYield, Job: j.ID, Alloc: j.Alloc.Ranges})
			}
			s.running.add(j)
			s.beginCheckpoint(j)
			return
		}
	}
	j.End = j.sliceFull
	if q := s.cfg.Quantum; s.now+q < j.sliceFull {
		j.End = s.now + q
	} else {
		j.sliceEnd, j.sliceFull = false, 0
	}
	s.running.add(j)
}

// sliceYields reports whether gang j must give up its nodes at the
// current quantum boundary: some pending, arrived job both ranks ahead
// of j as the discipline would order them after the suspension (j's
// round-robin key becomes the boundary instant) and is unblocked by the
// suspension — it cannot be placed on the currently free nodes but can
// be once j's nodes join them. Suspending for a waiter that already
// fits (it is blocked by policy, not capacity), for one that still
// would not fit, or for one j would immediately outrank again, would
// only thrash checkpoint/restore. Under FIFO only the queue head may
// start, so only the head is consulted; under the backfilling
// disciplines any outranking waiter counts (a backfill candidate's
// shadow constraint is re-checked at the actual start, so a yield is at
// worst one wasted suspension, not a misplacement).
func (s *Scheduler) sliceYields(j *Job) bool {
	for _, p := range s.pending.ordered(s.less) {
		if p == nil {
			continue
		}
		if p.demoteEnd > s.now {
			// Mid-eviction: p cannot start now. Under FIFO it is still
			// the head, and passOnce will not start anything behind it
			// — yielding for a lower-ranked waiter would drain a
			// checkpoint FIFO can never cash in.
			if s.cfg.Policy == FIFO {
				return false
			}
			continue
		}
		if !s.outranksAtBoundary(p, j) {
			if s.cfg.Policy == FIFO {
				return false // head-of-line: nothing behind the head can start
			}
			continue
		}
		// Both placement probes run with p's own image reservation
		// lifted (its dispatch spends that memory): counting it would
		// refuse yields to waiters self-blocked by their image, or
		// yield for one that could have started without j's nodes.
		yield := false
		s.withOwnImageLifted(p, func() {
			yield = !s.cfg.Cluster.canPlace(p.Nodes, p.memNeed) && s.yieldAdmits(j, p)
		})
		if yield {
			return true
		}
		if s.cfg.Policy == FIFO {
			return false
		}
	}
	return false
}

// yieldAdmits reports whether waiter p could be placed once gang j's
// nodes free at this quantum boundary, accounting for the memory j's
// own suspend-to-host image would pin on them. When only the image is
// in the way, j yields to the store tier instead (forceStore) — a
// suspension whose image immediately blocks the waiter it yielded for
// would just buy a demotion.
func (s *Scheduler) yieldAdmits(j, p *Job) bool {
	c := s.cfg.Cluster
	mark := len(c.probeLog)
	c.probeFree(j.Alloc.Ranges...)
	defer c.probeUndo(mark)
	if !s.hostEligible(j) {
		return c.canPlace(p.Nodes, p.memNeed)
	}
	c.reserve(j.Alloc, j.memNeed)
	ok := c.canPlace(p.Nodes, p.memNeed)
	c.unreserve(j.Alloc, j.memNeed)
	if ok {
		return true
	}
	if c.canPlace(p.Nodes, p.memNeed) {
		j.forceStore = true
		return true
	}
	return false
}

// outranksAtBoundary is jobLess(p, j) with j's round-robin key taken as
// the current instant — the order the queue would see if j suspended
// now — without mutating j.
func (s *Scheduler) outranksAtBoundary(p, j *Job) bool {
	if s.cfg.Policy == FairShare {
		if kp, kj := p.acct.key, j.acct.key; kp != kj {
			return kp < kj
		}
	}
	if p.Priority != j.Priority {
		return p.Priority > j.Priority
	}
	if k := p.rrKey(); k != s.now {
		return k < s.now
	}
	return p.ID < j.ID
}

// complete handles a job whose end event fired: frees its gang and
// either records the terminal state or — when the event was a
// checkpoint drain — re-enqueues the job with its saved progress.
func (s *Scheduler) complete(j *Job) {
	if j.preempting {
		s.endSegment(j, "drain", true)
		s.requeuePreempted(j)
		return
	}
	s.endSegment(j, "run", true)
	j.workLeft, j.doneWork = 0, j.est
	if s.cfg.Execute != nil {
		if ck, ok := s.cfg.Execute.(Checkpointer); ok && j.snapshot != nil {
			j.Detail, j.Err = ck.Resume(j, j.snapshot)
		} else {
			j.Detail, j.Err = s.cfg.Execute.Execute(j, j.Alloc)
		}
		j.snapshot = nil
	}
	if j.Err != nil {
		j.State = Failed
	} else {
		j.State = Done
	}
	if s.rec != nil {
		detail := "done"
		if j.State == Failed {
			detail = "failed"
		}
		s.record(Event{Time: s.now, Kind: EvComplete, Job: j.ID, From: j.arrive, To: s.now, Detail: detail})
	}
	if s.met != nil {
		if j.State == Failed {
			s.met.failed.Inc()
		} else {
			s.met.completed.Inc()
		}
		s.met.wait.Observe(j.Wait().Seconds())
	}
	s.finish(j)
}

// endSegment closes j's current run segment at the current instant: a
// segment that ended early (every detail but "run") joins History — a
// completed one stays {Alloc, segStart, End}, which Segments reads — the
// gang's nodes are credited the time they were held, and freed unless
// release is false (a bank keeps its seat), and the user is charged.
func (s *Scheduler) endSegment(j *Job, detail string, release bool) {
	held := s.now - j.segStart
	if detail != "run" {
		j.History = append(j.History, Segment{Alloc: j.Alloc, Start: j.segStart, End: s.now, Preempted: true})
	}
	if release {
		s.cfg.Cluster.Release(j.Alloc, held)
	} else {
		s.cfg.Cluster.creditBusy(j.Alloc, held)
	}
	s.chargeUsage(j.User, time.Duration(j.Alloc.Count)*held)
	if s.rec != nil {
		s.record(Event{Time: s.now, Kind: EvSegmentEnd, Job: j.ID, From: j.segStart, To: s.now, Alloc: j.Alloc.Ranges, Detail: detail})
	}
}

// finish files a job that has just reached a terminal state: kept for
// the report, or retired.
func (s *Scheduler) finish(j *Job) {
	if s.retirer == nil {
		s.finished = append(s.finished, j)
		return
	}
	s.retire(j)
}

// retire is the one place a job leaves byID: its figures go into the
// running totals, its final Record to the Retirer, and nothing of it
// stays behind. Structures that hold the *Job for a reason of their own
// (an eviction write still settling, a victim's waveFor) keep it until
// that reason ends; none of them outlives the work in flight.
func (s *Scheduler) retire(j *Job) {
	s.tot.fold(j)
	delete(s.byID, j.ID)
	s.retirer.Retire(recordOf(j))
}

// trunkFactor is the runtime stretch of a gang that crosses the
// stacking trunk, TrunkSlowdown when above 1, or does not, 1.
func (s *Scheduler) trunkFactor(crosses bool) float64 {
	if crosses && s.cfg.TrunkSlowdown > 1 {
		return s.cfg.TrunkSlowdown
	}
	return 1
}

// stretched applies the scheduler-known trunk slowdown to a duration
// when the placement crosses the stacking trunk.
func (s *Scheduler) stretched(d time.Duration, crosses bool) time.Duration {
	if f := s.trunkFactor(crosses); f != 1 {
		return time.Duration(float64(d) * f)
	}
	return d
}

// shadowStart returns the earliest virtual time the blocked head job
// could be placed, assuming running jobs end on schedule and nothing
// else starts first — the backfill reservation. Two event kinds free capacity: a running gang's end
// frees its nodes, and an in-flight demotion's settlement unpins the
// host memory its image holds; both are replayed in time order, and
// the head's own resident image is lifted throughout (its dispatch
// spends it). The engine places as soon as enough eligible nodes are
// free, contiguous or not.
func (s *Scheduler) shadowStart(hd *Job) (shadow time.Duration) {
	s.withOwnImageLifted(hd, func() { shadow = s.shadowStartLifted(hd) })
	return shadow
}

// shadowStartLifted is shadowStart's body, run with the head's own
// image lifted. On a uniform machine — no constrained nodes, no down
// nodes, the trunk up — any k free nodes admit the head, so the shadow
// is a pure counting question and the running set answers it by
// summing node counts from its earliest completion (countShadow).
// Everything else falls back to the full replay. No constrained node
// implies the rest of what the count needs:
//   - no in-flight demotion or migration pin holds memory: a
//     reservation of non-zero bytes marks its nodes constrained until it
//     settles (a demoting image keeps its reservation to demoteEnd, and
//     withOwnImageLifted lifts only an image not mid-eviction), and one
//     of zero bytes changes no canPlace answer;
//   - the head fits every node: all nodes then carry the default spec,
//     and Submit admits no job that fewer than Nodes nodes can hold
//     (SetSpec describes the machine before any submission).
//
// TestShadowPathsAgree holds the two paths to the same schedule;
// TestShadowWaitsOutTrunkOutage pins the trunk clause.
func (s *Scheduler) shadowStartLifted(hd *Job) time.Duration {
	if c := s.cfg.Cluster; c.nConstrained == 0 && c.downCount == 0 && !c.trunkDown {
		return s.countShadow(hd)
	}
	return s.replayShadow(hd)
}

// countShadow is the incremental EASY shadow for the uniform fast path:
// the head places as soon as enough nodes are free, so the reservation
// is the earliest completion instant by which the free count reaches
// hd.Nodes — a prefix sum over the running set in completion order,
// stopped at the first entry that covers the deficit. Exactly
// replayShadow's answer when its gate holds: the replay's only events
// that free capacity are then completions, processed in the same
// (End, ID) order, and its per-event canPlace degenerates to the same
// count comparison.
func (s *Scheduler) countShadow(hd *Job) time.Duration {
	free := s.cfg.Cluster.FreeNodes()
	if free >= hd.Nodes {
		return s.now
	}
	if t, ok := s.running.coverTime(hd.Nodes - free); ok {
		return t
	}
	// Unreachable while every used node belongs to a tracked running
	// gang (free + tracked completions cover the machine, and admission
	// bounds hd.Nodes by the machine); mirror replayShadow's fallback.
	return s.now
}

// replayShadow is the full shadow replay: fire future events in time
// order in the live cluster, probe placement after each, and undo them.
func (s *Scheduler) replayShadow(hd *Job) time.Duration {
	k, memNeed := hd.Nodes, hd.memNeed
	c := s.cfg.Cluster
	if c.canPlace(k, memNeed) {
		return s.now
	}
	type shadowEv struct {
		t       time.Duration
		r       *Job       // running gang ending (nodes free), or...
		alloc   Allocation // ...a reservation settling (memory unpins):
		bytes   int64      // a demotion write or a migration pin, or...
		up      int        // ...a downed node repairing (node index + 1), or...
		trunkUp bool       // ...the active trunk outage ending
	}
	evs := make([]shadowEv, 0, s.running.len()+len(s.demoting)+len(s.pinned)+c.downCount)
	s.running.each(func(r *Job) { evs = append(evs, shadowEv{t: r.End, r: r}) })
	for _, d := range s.demoting {
		evs = append(evs, shadowEv{t: d.demoteEnd, alloc: d.Alloc, bytes: d.memNeed})
	}
	for _, p := range s.pinned {
		evs = append(evs, shadowEv{t: p.at, alloc: p.alloc, bytes: p.bytes})
	}
	// Currently-down nodes repair at their scheduled instants, and an
	// active trunk outage ends at its scheduled instant — both grow
	// capacity monotonically, so replaying them keeps per-event probing
	// valid. Future faults are ignored: the shadow is the optimistic
	// reservation, exactly as it already trusts running jobs' estimates.
	if c.downCount > 0 {
		for i := range s.downSince {
			if s.downSince[i] >= 0 {
				evs = append(evs, shadowEv{t: s.downUntil[i], up: i + 1})
			}
		}
	}
	if c.trunkDown {
		evs = append(evs, shadowEv{t: s.trunkBack, trunkUp: true})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		// Completions before settlements at the same instant; within a
		// kind the stable sort keeps the deterministic source order.
		return evs[i].r != nil && evs[j].r == nil
	})
	// canPlace consults the live index, reservation table and
	// trunk-outage flag, so events are simulated in place — completing
	// gangs and repaired nodes freed as a probe, reservations lifted —
	// and undone before returning.
	var lifted []shadowEv
	trunkWas := c.trunkDown
	mark := len(c.probeLog)
	restore := func() {
		c.probeUndo(mark)
		for _, e := range lifted {
			c.reserve(e.alloc, e.bytes)
		}
		c.trunkDown = trunkWas
	}
	for _, e := range evs {
		switch {
		case e.r != nil:
			c.probeFree(e.r.Alloc.Ranges...)
		case e.up > 0:
			c.probeFree(NodeRange{First: e.up - 1, Count: 1})
		case e.trunkUp:
			c.trunkDown = false
		default:
			c.unreserve(e.alloc, e.bytes)
			lifted = append(lifted, e)
		}
		if c.canPlace(k, memNeed) {
			restore()
			return e.t
		}
	}
	restore()
	// Only reachable when resident images that nothing is evicting pin
	// the needed memory: fall back to "now", which conservatively
	// freezes backfill until the next scheduling event (demoteFor has
	// already evicted whatever would actually unblock the head).
	return s.now
}
