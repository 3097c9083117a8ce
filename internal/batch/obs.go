package batch

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Scheduler observability: a Recorder attached through Config.Recorder
// receives one typed Event per job lifecycle transition, in virtual
// time, as the event loop takes it — submit, dispatch (with its restore
// prefix and store transfers), checkpoint drains, slice yields,
// suspend-to-host parking, demotions, segment ends, completion — plus
// one EvBlocked per queued job a scheduling sweep examines and skips,
// explaining why it did not start (explain.go). The stream is strictly
// append-only and deterministic: replaying the same mix under the same
// config produces the same events, which the determinism tests pin.
//
// A nil Recorder costs nothing: every hook site is guarded by a single
// nil check and the hot scheduling path allocates nothing extra (the
// zero-alloc guard in obs_test.go pins that). With a recorder attached
// the stream feeds the Chrome trace-event exporter below (Perfetto
// tracks for jobs, nodes, and both store-link directions) and
// Report.Timeline. Two recorders ship: MemRecorder keeps the whole
// stream, for replay and traces of a bounded run; RingRecorder keeps a
// fixed-size tail of the lifecycle events, for a daemon left running.
// Explanations need neither's memory — the scheduler counts blocked
// passes per job itself (explain.go).

// EventKind identifies a lifecycle transition.
type EventKind uint8

const (
	// EvSubmit is a job accepted into the queue. From is the resolved
	// arrival instant; Detail carries a display label (name, kind, gang
	// width, priority, user).
	EvSubmit EventKind = iota
	// EvDispatch is a gang placement: a segment begins. Alloc is the
	// granted gang, From the instant work starts after the restore
	// prefix (equal to Time for a fresh start), To the blocked head's
	// reservation a bounded backfill was admitted under (zero for any
	// other start), Detail the dispatch flavor ("start", "backfill",
	// "host-resume", "store-restore", "migrate-restore", or a
	// backfill-prefixed combination).
	EvDispatch
	// EvBlocked records that a queued, arrived job was scanned on a
	// scheduling pass and did not start. Pass numbers the pass, Reason
	// classifies the dominant obstacle, and From carries the relevant
	// future instant when one exists (the EASY shadow bound or a
	// conservative reserved start).
	EvBlocked
	// EvDrainBegin is a checkpoint drain starting: the gang is held
	// through the drain. From/To span queue wait plus transfer (To is
	// the drain end), Alloc the held gang, Detail the tier and cause
	// ("store preempt", "host slice", ...).
	EvDrainBegin
	// EvRequeue is a drain end: the job re-enters the queue with its
	// progress banked. Detail is "host" when the image stayed in RAM,
	// "store" when it drained to the checkpoint store.
	EvRequeue
	// EvHostSuspend is an image parked in host RAM, pinning its memory
	// footprint on Alloc until resume or demotion.
	EvHostSuspend
	// EvDemoteBegin is a host image starting its eviction write to the
	// store under memory pressure; From/To span the write transfer,
	// Alloc the nodes whose RAM stays pinned until To.
	EvDemoteBegin
	// EvDemoteEnd is an eviction write settling: the memory unpins and
	// the job's next restore is re-priced at the store tariff.
	EvDemoteEnd
	// EvSliceYield is a quantum-boundary suspension decision: the gang
	// yields its nodes to an outranking waiter (the drain follows as
	// EvDrainBegin).
	EvSliceYield
	// EvStoreWrite is a transfer occupying the store link's write
	// direction: From/To span the transfer, Detail the cause ("drain",
	// "demote", or "migrate" for the outbound leg of a host-image
	// migration).
	EvStoreWrite
	// EvStoreRead is a restore transfer on the read direction; Detail
	// is "cancel" when a mid-restore preemption released the tail of
	// the reservation (To is then the cancellation instant).
	EvStoreRead
	// EvSegmentEnd is a gang release: From/To span the segment exactly
	// as Job.Segments reports it, Alloc is the released gang, Detail "run"
	// for a completion, "drain" for a checkpoint end, "cancel" for a
	// mid-run cancellation, "fault" for a fault kill, and "bank" for a
	// settled proactive checkpoint (the gang keeps its seat).
	EvSegmentEnd
	// EvComplete is the terminal transition; Detail is "done" or
	// "failed".
	EvComplete
	// EvNodeDown is an injected node crash (fault.go): Alloc names the
	// node, From/To span the scheduled down interval.
	EvNodeDown
	// EvNodeUp is the matching repair: the node rejoins the free pool.
	EvNodeUp
	// EvTrunkDown is an injected whole-trunk outage: From/To span it;
	// crossing gangs are killed and no crossing placement is admitted
	// until EvTrunkUp.
	EvTrunkDown
	// EvTrunkUp ends the active trunk outage.
	EvTrunkUp
)

// eventKindNames is indexed by EventKind.
var eventKindNames = [...]string{
	EvSubmit:      "submit",
	EvDispatch:    "dispatch",
	EvBlocked:     "blocked",
	EvDrainBegin:  "drain-begin",
	EvRequeue:     "requeue",
	EvHostSuspend: "host-suspend",
	EvDemoteBegin: "demote-begin",
	EvDemoteEnd:   "demote-end",
	EvSliceYield:  "slice-yield",
	EvStoreWrite:  "store-write",
	EvStoreRead:   "store-read",
	EvSegmentEnd:  "segment-end",
	EvComplete:    "complete",
	EvNodeDown:    "node-down",
	EvNodeUp:      "node-up",
	EvTrunkDown:   "trunk-down",
	EvTrunkUp:     "trunk-up",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one recorded lifecycle transition. Fields beyond Time, Kind,
// and Job are kind-specific; unused ones are zero.
type Event struct {
	// Time is the virtual instant the transition was taken.
	Time time.Duration
	// Kind is the transition type.
	Kind EventKind
	// Reason classifies EvBlocked events (explain.go).
	Reason BlockReason
	// Job is the subject's scheduler-assigned ID.
	Job int
	// Pass numbers the scheduling pass for EvBlocked events.
	Pass int
	// From and To span the interval the event describes: a transfer, a
	// segment, a drain; for EvSubmit, From is the arrival, for EvBlocked
	// it is the shadow/reservation bound when one applies, and for a
	// bounded backfill's EvDispatch, To is the bound it was admitted under.
	From, To time.Duration
	// Alloc is the gang's nodes, for occupancy-bearing events.
	Alloc NodeRanges
	// Detail refines the kind (tier, cause, dispatch flavor).
	Detail string
}

// Recorder receives lifecycle events as the event loop takes them. A
// nil Config.Recorder disables recording at zero cost. Implementations
// must not retain the Event beyond the call unless they copy it (the
// built-in MemRecorder appends by value, which is a copy).
type Recorder interface {
	Record(ev Event)
}

// MemRecorder is the full-stream in-memory Recorder: an append-only
// event slice that grows with the run — O(queued jobs) EvBlocked events
// per scheduling sweep on top of the lifecycle. Attach it to a run that
// ends (a replay, a Perfetto trace); a long-lived engine wants the
// RingRecorder.
type MemRecorder struct {
	events []Event
}

// Record appends the event.
func (r *MemRecorder) Record(ev Event) { r.events = append(r.events, ev) }

// Events returns the recorded stream in record order. The slice is
// owned by the recorder; callers that mutate it should copy first.
func (r *MemRecorder) Events() []Event { return r.events }

// Reset discards the recorded stream, keeping the capacity.
func (r *MemRecorder) Reset() { r.events = r.events[:0] }

// RingCapacity is how many events a RingRecorder retains.
const RingCapacity = 4096

// LedgerCapacity is how many retired jobs a front door's ledger keeps
// answering for (retire.go, package server): the ledger grows on demand
// to this many final records and then overwrites the oldest. It is
// RingCapacity's counterpart for jobs — between the two, what a daemon
// remembers of its past is bounded however long it stays up.
const LedgerCapacity = 8192

// RingRecorder is the bounded Recorder: it keeps the most recent
// RingCapacity lifecycle events and drops EvBlocked, whose content the
// scheduler's per-job counters already hold (explain.go), so its memory
// does not grow with uptime. The zero value is ready to use: its buffer
// is allocated with it, once, and never grows.
type RingRecorder struct {
	buf [RingCapacity]Event
	n   int // events kept so far; the next goes to buf[n%RingCapacity]
}

// Record keeps the event, overwriting the oldest once full.
func (r *RingRecorder) Record(ev Event) {
	if ev.Kind == EvBlocked {
		return
	}
	r.buf[r.n%RingCapacity] = ev
	r.n++
}

// Events returns a copy of the retained events in record order.
func (r *RingRecorder) Events() []Event {
	kept, head := min(r.n, RingCapacity), 0
	if r.n > RingCapacity {
		head = r.n % RingCapacity
	}
	out := make([]Event, 0, kept)
	out = append(out, r.buf[head:kept]...)
	return append(out, r.buf[:head]...)
}

// record forwards to the attached recorder. Callers guard with
// s.rec != nil so disabled instrumentation costs one predictable
// branch and zero allocations.
//
//batchlint:allow recorderguard -- the forwarder is the single audited unguarded deref; recorderguard forces every caller to hold s.rec != nil
func (s *Scheduler) record(ev Event) { s.rec.Record(ev) }

// dispatchDetail names how a segment starts: fresh start vs. restore
// tier, with the backfill lane called out. Constant strings only — the
// recorder hot path must not allocate, and the golden trace pins these
// labels.
func dispatchDetail(backfilled, migrate, storeRead bool, prefix time.Duration) string {
	var base string
	switch {
	case migrate:
		base = "migrate-restore"
	case storeRead:
		base = "store-restore"
	case prefix > 0:
		base = "host-resume"
	default:
		base = "start"
	}
	if !backfilled {
		return base
	}
	switch base {
	case "migrate-restore":
		return "backfill migrate-restore"
	case "store-restore":
		return "backfill store-restore"
	case "host-resume":
		return "backfill host-resume"
	}
	return "backfill"
}

// Chrome trace-event export. The emitted JSON loads directly into
// ui.perfetto.dev (or chrome://tracing): process 1 holds one track per
// job (wait, restore, run, drain, host-image slices plus a queue-depth
// counter), process 2 one track per node (occupancy intervals labeled
// by job), process 3 the store link's write and read directions.
const (
	tracePidJobs  = 1
	tracePidNodes = 2
	tracePidLink  = 3

	traceTidWrite = 1
	traceTidRead  = 2
)

// chromeEvent is one trace-event record. Field order is the emission
// order (encoding/json preserves struct order), so the output is
// deterministic byte for byte.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders a recorded event stream as Chrome
// trace-event JSON for a cluster of the given node count. Timestamps
// are integer microseconds of virtual time. The output is
// deterministic: same events, same bytes (the golden test pins the
// bundled sample trace's output).
func WriteChromeTrace(w io.Writer, events []Event, nodes int) error {
	us := func(d time.Duration) int64 { return int64(d / time.Microsecond) }
	var out []chromeEvent
	emitX := func(pid, tid int, name string, from, to time.Duration, args map[string]any) {
		if to < from {
			to = from
		}
		out = append(out, chromeEvent{Name: name, Ph: "X", Ts: us(from), Dur: us(to - from), Pid: pid, Tid: tid, Args: args})
	}

	// Per-job replay state: open wait/host-image windows and the
	// pending dispatch whose run slice closes at the next segment end.
	type jobState struct {
		label      string
		queuedAt   time.Duration
		queued     bool
		workAt     time.Duration
		dispatched bool
		detail     string
		drainAt    time.Duration
		draining   bool
		hostAt     time.Duration
		host       bool
	}
	states := make(map[int]*jobState)
	jobIDs := make([]int, 0, 64) // submit order, for metadata emission
	st := func(id int) *jobState {
		j := states[id]
		if j == nil {
			j = &jobState{}
			states[id] = j
		}
		return j
	}
	// Queue-depth counter deltas: +1 at arrival and requeue, -1 at
	// dispatch.
	type depthDelta struct {
		t time.Duration
		d int
	}
	var deltas []depthDelta
	hasTrunk := false // a trunk-outage track is emitted only when one occurred

	for _, ev := range events {
		j := st(ev.Job)
		switch ev.Kind {
		case EvSubmit:
			j.label = ev.Detail
			j.queuedAt, j.queued = ev.From, true
			jobIDs = append(jobIDs, ev.Job)
			deltas = append(deltas, depthDelta{ev.From, +1})
		case EvDispatch:
			if j.queued {
				emitX(tracePidJobs, ev.Job, "wait", j.queuedAt, ev.Time, nil)
				j.queued = false
			}
			if j.host {
				emitX(tracePidJobs, ev.Job, "host-image", j.hostAt, ev.Time, nil)
				j.host = false
			}
			j.workAt, j.dispatched, j.detail = ev.From, true, ev.Detail
			j.draining = false
			deltas = append(deltas, depthDelta{ev.Time, -1})
		case EvDrainBegin:
			emitX(tracePidJobs, ev.Job, "drain "+ev.Detail, ev.Time, ev.To, nil)
			j.drainAt, j.draining = ev.Time, true
		case EvSegmentEnd:
			if j.dispatched {
				workAt := j.workAt
				if j.draining && workAt > j.drainAt {
					workAt = j.drainAt // preempted mid-restore: no work ran
				}
				if workAt > ev.To {
					workAt = ev.To
				}
				if workAt > ev.From {
					emitX(tracePidJobs, ev.Job, "restore", ev.From, workAt, nil)
				}
				emitX(tracePidJobs, ev.Job, "run", workAt, ev.To, map[string]any{"dispatch": j.detail})
				j.dispatched, j.draining = false, false
			}
			for _, n := range ev.Alloc.Nodes() {
				emitX(tracePidNodes, n, fmt.Sprintf("j%d", ev.Job), ev.From, ev.To, nil)
			}
			if ev.Detail == "bank" {
				// A settled proactive checkpoint: the gang kept its seat,
				// so the run window re-opens in place with no dispatch.
				j.workAt, j.dispatched = ev.To, true
			}
		case EvNodeDown:
			for _, n := range ev.Alloc.Nodes() {
				emitX(tracePidNodes, n, "down", ev.From, ev.To, nil)
			}
		case EvTrunkDown:
			emitX(tracePidNodes, nodes, "trunk outage", ev.From, ev.To, nil)
			hasTrunk = true
		case EvRequeue:
			j.queuedAt, j.queued = ev.Time, true
			deltas = append(deltas, depthDelta{ev.Time, +1})
		case EvHostSuspend:
			j.hostAt, j.host = ev.Time, true
		case EvDemoteBegin:
			emitX(tracePidJobs, ev.Job, "demote", ev.From, ev.To, nil)
		case EvDemoteEnd:
			if j.host {
				emitX(tracePidJobs, ev.Job, "host-image", j.hostAt, ev.Time, nil)
				j.host = false
			}
		case EvStoreWrite:
			emitX(tracePidLink, traceTidWrite, fmt.Sprintf("%s j%d", ev.Detail, ev.Job), ev.From, ev.To, nil)
		case EvStoreRead:
			name := fmt.Sprintf("read j%d", ev.Job)
			if ev.Detail != "" {
				name = fmt.Sprintf("read j%d (%s)", ev.Job, ev.Detail)
			}
			emitX(tracePidLink, traceTidRead, name, ev.From, ev.To, nil)
		}
	}

	// Queue-depth counter track: sorted deltas, accumulated.
	sort.SliceStable(deltas, func(i, k int) bool { return deltas[i].t < deltas[k].t })
	depth := 0
	for i, d := range deltas {
		depth += d.d
		if i+1 < len(deltas) && deltas[i+1].t == d.t {
			continue // coalesce same-instant changes
		}
		out = append(out, chromeEvent{Name: "queue depth", Ph: "C", Ts: us(d.t), Pid: tracePidJobs, Tid: 0,
			Args: map[string]any{"jobs": depth}})
	}

	// Metadata: process and thread names, in (pid, tid) order.
	var meta []chromeEvent
	metaName := func(pid, tid int, kind, name string) {
		meta = append(meta, chromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	metaName(tracePidJobs, 0, "process_name", "jobs")
	sort.Ints(jobIDs)
	for _, id := range jobIDs {
		label := states[id].label
		if label == "" {
			label = fmt.Sprintf("job %d", id)
		}
		metaName(tracePidJobs, id, "thread_name", label)
	}
	metaName(tracePidNodes, 0, "process_name", "nodes")
	for n := 0; n < nodes; n++ {
		metaName(tracePidNodes, n, "thread_name", fmt.Sprintf("node %d", n))
	}
	if hasTrunk {
		metaName(tracePidNodes, nodes, "thread_name", "trunk")
	}
	metaName(tracePidLink, 0, "process_name", "store link")
	metaName(tracePidLink, traceTidWrite, "thread_name", "write (drains, demotions, migrations)")
	metaName(tracePidLink, traceTidRead, "thread_name", "read (restores)")
	out = append(meta, out...)

	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, e := range out {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if i < len(out)-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// WriteChromeTrace renders the report's recorded event stream (a
// scheduler run with Config.Recorder set to a MemRecorder) as Chrome
// trace-event JSON — see the package-level WriteChromeTrace.
func (r Report) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, r.Events, len(r.NodeBusy))
}

// Timeline returns the recorded events concerning one job, in record
// order — the per-job lifecycle view tests and operators previously
// re-derived from History segments. The returned slice is a copy. It
// is empty when no recorder was attached to the run.
func (r Report) Timeline(jobID int) []Event {
	var out []Event
	for _, ev := range r.Events {
		if ev.Job == jobID {
			out = append(out, ev)
		}
	}
	return out
}
