package batch

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Fault injection: the commodity cluster the paper builds is made of
// parts that fail, and this file owns the failure model. A FaultPlan is
// a schedule of node crashes (with repair times) and whole-trunk
// outages, either generated from a seed (exponential inter-arrival
// times, the classic MTBF model) or parsed from a fault trace file. The
// scheduler compiles the plan into a sorted event list and injects the
// events into its virtual-time loop as first-class citizens: a crash
// kills every gang resident on the node, the job restarts from its last
// banked History boundary, and the lost work since that boundary is
// accounted exactly (Report.LostWork). Link flaps are modeled as short
// crashes — a node that drops off the fabric is gone for the gang
// either way.

// NodeFault takes one node off the machine at At for Repair long.
type NodeFault struct {
	Node   int
	At     time.Duration
	Repair time.Duration
}

// TrunkFault severs the stacking trunk at At for Duration: gangs whose
// allocation crosses the trunk lose their interconnect and are killed,
// and no trunk-crossing gang can be placed until the outage ends.
type TrunkFault struct {
	At       time.Duration
	Duration time.Duration
}

// FaultPlan is a failure schedule. Overlapping or touching down
// intervals on the same node (and overlapping trunk outages) are merged
// when the plan is compiled, so a plan never double-downs a node.
type FaultPlan struct {
	Crashes []NodeFault
	Trunks  []TrunkFault
}

// Empty reports whether the plan injects nothing.
func (p *FaultPlan) Empty() bool {
	return p == nil || (len(p.Crashes) == 0 && len(p.Trunks) == 0)
}

// GenFaultPlan builds a seeded failure storm for a machine of the given
// size over [0, horizon): node crashes arrive as a Poisson process with
// machine-wide rate nodes/mtbf (each node sees the given MTBF), repairs
// take 2–10% of the MTBF, and trunk outages are an order of magnitude
// rarer and shorter — the switch is better hardware than the nodes.
// The same seed always yields the same plan.
func GenFaultPlan(seed int64, nodes int, horizon, mtbf time.Duration) *FaultPlan {
	p := &FaultPlan{}
	if nodes <= 0 || horizon <= 0 || mtbf <= 0 {
		return p
	}
	rng := rand.New(rand.NewSource(seed))
	gap := float64(mtbf) / float64(nodes)
	for t := time.Duration(rng.ExpFloat64() * gap); t < horizon; t += time.Duration(rng.ExpFloat64() * gap) {
		repair := time.Duration((0.02 + 0.08*rng.Float64()) * float64(mtbf))
		p.Crashes = append(p.Crashes, NodeFault{Node: rng.Intn(nodes), At: t, Repair: repair})
	}
	trunkGap := 10 * float64(mtbf)
	for t := time.Duration(rng.ExpFloat64() * trunkGap); t < horizon; t += time.Duration(rng.ExpFloat64() * trunkGap) {
		dur := time.Duration((0.005 + 0.015*rng.Float64()) * float64(mtbf))
		p.Trunks = append(p.Trunks, TrunkFault{At: t, Duration: dur})
	}
	return p
}

// ParseFaultPlan reads a fault trace. The format is line-oriented, one
// fault per line, times in (fractional) seconds; '#' and ';' start
// comments:
//
//	crash <node> <at_s> <repair_s>   node down at at_s, back repair_s later
//	flap  <node> <at_s> <dur_s>     link flap: the node drops off the fabric
//	trunk <at_s> <dur_s>            whole-trunk outage
//
// Times must pass parseField; a fault has node >= 0, at >= 0, dur > 0.
func ParseFaultPlan(r io.Reader) (*FaultPlan, error) {
	p := &FaultPlan{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		for i, c := range text {
			if c == '#' || c == ';' {
				text = text[:i]
				break
			}
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		secs := func(idx int) (time.Duration, error) {
			f, err := parseField(fields[idx])
			if err != nil {
				return 0, fmt.Errorf("batch: fault plan line %d field %d: %v", line, idx+1, err)
			}
			return time.Duration(f * float64(time.Second)), nil
		}
		switch fields[0] {
		case "crash", "flap":
			if len(fields) != 4 {
				return nil, fmt.Errorf("batch: fault plan line %d: %s wants <node> <at_s> <dur_s>", line, fields[0])
			}
			node, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("batch: fault plan line %d field 2: %v", line, err)
			}
			at, err := secs(2)
			if err != nil {
				return nil, err
			}
			dur, err := secs(3)
			if err != nil {
				return nil, err
			}
			if node < 0 || at < 0 || dur <= 0 {
				return nil, fmt.Errorf("batch: fault plan line %d: node/time out of range", line)
			}
			p.Crashes = append(p.Crashes, NodeFault{Node: node, At: at, Repair: dur})
		case "trunk":
			if len(fields) != 3 {
				return nil, fmt.Errorf("batch: fault plan line %d: trunk wants <at_s> <dur_s>", line)
			}
			at, err := secs(1)
			if err != nil {
				return nil, err
			}
			dur, err := secs(2)
			if err != nil {
				return nil, err
			}
			if at < 0 || dur <= 0 {
				return nil, fmt.Errorf("batch: fault plan line %d: time out of range", line)
			}
			p.Trunks = append(p.Trunks, TrunkFault{At: at, Duration: dur})
		default:
			return nil, fmt.Errorf("batch: fault plan line %d: unknown fault kind %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("batch: fault plan: %v", err)
	}
	return p, nil
}

// LoadFaultPlan reads a fault trace file.
func LoadFaultPlan(path string) (*FaultPlan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseFaultPlan(f)
}

// faultKind tags a compiled fault event. Ups sort before downs at the
// same instant: repaired capacity is back on the machine before a
// simultaneous crash elsewhere takes its toll.
type faultKind uint8

const (
	faultNodeUp faultKind = iota
	faultTrunkUp
	faultNodeDown
	faultTrunkDown
)

// faultEvent is one compiled fault: a down event carries the instant
// its interval ends (until), so the scheduler always knows a downed
// node's repair time without scanning ahead.
type faultEvent struct {
	at    time.Duration
	until time.Duration // down events: interval end; up events: 0
	kind  faultKind
	node  int
}

// compile merges the plan's intervals — per-node for crashes, globally
// for trunk outages, overlapping or touching intervals coalesce — and
// flattens them into one event list sorted by (at, ups-first, node).
// Crashes naming nodes outside [0, nodes) are dropped. The result is
// what the scheduler injects; all overlap logic happens here, once.
func (p *FaultPlan) compile(nodes int) []faultEvent {
	if p.Empty() {
		return nil
	}
	type span struct{ from, to time.Duration }
	merge := func(spans []span) []span {
		sort.Slice(spans, func(i, j int) bool { return spans[i].from < spans[j].from })
		out := spans[:0]
		for _, sp := range spans {
			if n := len(out); n > 0 && sp.from <= out[n-1].to {
				if sp.to > out[n-1].to {
					out[n-1].to = sp.to
				}
				continue
			}
			out = append(out, sp)
		}
		return out
	}
	perNode := map[int][]span{}
	for _, c := range p.Crashes {
		if c.Node < 0 || c.Node >= nodes || c.Repair <= 0 || c.At < 0 {
			continue
		}
		perNode[c.Node] = append(perNode[c.Node], span{c.At, c.At + c.Repair})
	}
	var evs []faultEvent
	for node := 0; node < nodes; node++ {
		for _, sp := range merge(perNode[node]) {
			evs = append(evs,
				faultEvent{at: sp.from, until: sp.to, kind: faultNodeDown, node: node},
				faultEvent{at: sp.to, kind: faultNodeUp, node: node})
		}
	}
	var trunks []span
	for _, t := range p.Trunks {
		if t.Duration <= 0 || t.At < 0 {
			continue
		}
		trunks = append(trunks, span{t.At, t.At + t.Duration})
	}
	for _, sp := range merge(trunks) {
		evs = append(evs,
			faultEvent{at: sp.from, until: sp.to, kind: faultTrunkDown, node: -1},
			faultEvent{at: sp.to, kind: faultTrunkUp, node: -1})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		if evs[i].kind != evs[j].kind {
			return evs[i].kind < evs[j].kind
		}
		return evs[i].node < evs[j].node
	})
	return evs
}

// applyFaults applies every compiled fault event due at or before the
// current instant, in schedule order. The event loop calls it after
// demotion settlements and before the scheduling pass, so completions
// due at the same instant have already been handled (a gang that
// finishes exactly when its node dies completed first) and the pass
// that follows sees the post-fault machine. Events skipped while the
// scheduler was idle catch up here in order; a down interval that
// passed entirely while nothing ran is elided — nothing was on the
// node, nothing is lost, and the machine never noticed.
func (s *Scheduler) applyFaults() {
	for s.faultIdx < len(s.faultEvs) && s.faultEvs[s.faultIdx].at <= s.now {
		ev := s.faultEvs[s.faultIdx]
		s.faultIdx++
		switch ev.kind {
		case faultNodeDown:
			s.applyNodeDown(ev)
		case faultNodeUp:
			s.applyNodeUp(ev)
		case faultTrunkDown:
			s.applyTrunkDown(ev)
		case faultTrunkUp:
			s.applyTrunkUp(ev)
		}
	}
}

// allocCovers reports whether the allocation includes the node.
func allocCovers(a Allocation, node int) bool {
	for _, r := range a.Ranges {
		if node >= r.First && node < r.First+r.Count {
			return true
		}
	}
	return false
}

// faultAlloc encodes the node a fault event concerns in the Event's
// Alloc field — the recorder schema's existing node carrier.
func faultAlloc(node int) NodeRanges {
	return NodeRanges{{First: node, Count: 1}}
}

// applyNodeDown takes a node out of service: the resident gang (at most
// one — single residency) is killed, host-RAM checkpoint images on the
// node are destroyed, and the node leaves the free-range index until
// its repair event. Checkpoint *boundaries* are durable — every bank,
// drain, and demotion wrote through to the checkpoint store in this
// model — so destroying an in-RAM image never loses banked progress,
// only re-prices the next restore at the store tariff.
func (s *Scheduler) applyNodeDown(ev faultEvent) {
	if ev.until <= s.now {
		return // the whole down interval passed while the machine was idle
	}
	c := s.cfg.Cluster
	node := ev.node
	if s.rec != nil {
		s.record(Event{Time: s.now, Kind: EvNodeDown, From: s.now, To: ev.until, Alloc: faultAlloc(node)})
	}
	// Kill the resident gang first: its release frees every node it
	// holds, including this one, so the down marking below finds the
	// node unallocated.
	var resident *Job
	s.running.each(func(r *Job) {
		if allocCovers(r.Alloc, node) {
			resident = r
		}
	})
	if resident != nil {
		s.failGang(resident)
	}
	// Host images on the dead node: the RAM copy is gone. The owner
	// keeps its banked progress (durable boundary) but its next
	// dispatch is a full store restore. An image mid-demotion is
	// settled the same way, immediately — its write slot on the link is
	// not compacted (the link model has no write-side release).
	for _, p := range s.pending.jobs {
		if p == nil || !p.hostImage || !allocCovers(p.Alloc, node) {
			continue
		}
		c.unreserve(p.Alloc, p.memNeed)
		p.hostImage = false
		if p.demoteEnd != 0 {
			p.demoteEnd = 0
			for i, d := range s.demoting {
				if d == p {
					s.demoting = append(s.demoting[:i], s.demoting[i+1:]...)
					break
				}
			}
		}
		s.priceStoreRestore(p)
	}
	c.nodeDown(node)
	s.downSince[node] = s.now
	s.downUntil[node] = ev.until
	s.ctr.NodeFaults++
	// Capacity shrank: EASY/conservative promises computed against the
	// pre-fault machine are no longer bounds anyone can honor.
	s.voidPromises()
}

// applyNodeUp returns a repaired node to service.
func (s *Scheduler) applyNodeUp(ev faultEvent) {
	node := ev.node
	if s.downSince == nil || s.downSince[node] < 0 {
		return // the matching down was elided while the machine was idle
	}
	c := s.cfg.Cluster
	c.nodeUp(node)
	s.downTime += s.now - s.downSince[node]
	s.downSince[node] = -1
	s.downUntil[node] = 0
	if s.rec != nil {
		s.record(Event{Time: s.now, Kind: EvNodeUp, Alloc: faultAlloc(node)})
	}
}

// applyTrunkDown severs the stacking trunk: every gang whose allocation
// crosses it loses its interconnect and is killed, and no crossing
// placement is admitted until the outage ends (placement.go clips
// eligible runs at the boundary). The checkpoint-store link is not the
// trunk — drains and restores keep flowing during an outage.
func (s *Scheduler) applyTrunkDown(ev faultEvent) {
	if ev.until <= s.now {
		return // the whole outage passed while the machine was idle
	}
	c := s.cfg.Cluster
	if s.rec != nil {
		s.record(Event{Time: s.now, Kind: EvTrunkDown, From: s.now, To: ev.until, Alloc: faultAlloc(-1)})
	}
	var victims []*Job
	s.running.each(func(r *Job) {
		if r.Alloc.CrossesTrunk {
			victims = append(victims, r)
		}
	})
	sort.Slice(victims, func(i, j int) bool { return victims[i].ID < victims[j].ID })
	for _, v := range victims {
		s.failGang(v)
	}
	c.trunkDown = true
	s.trunkBack = ev.until
	s.ctr.TrunkOutages++
	s.voidPromises()
}

// applyTrunkUp ends the active trunk outage.
func (s *Scheduler) applyTrunkUp(ev faultEvent) {
	c := s.cfg.Cluster
	if !c.trunkDown {
		return // the outage was elided while the machine was idle
	}
	c.trunkDown = false
	s.trunkBack = 0
	if s.rec != nil {
		s.record(Event{Time: s.now, Kind: EvTrunkUp, Alloc: faultAlloc(-1)})
	}
}

// failGang kills a running gang a fault just cut off: the segment ends
// here, the nodes free immediately, and the job re-enters the queue to
// restart from its last banked History boundary. Work since that
// boundary is lost (loseProgress → Report.LostWork) — except for a gang
// killed mid-drain, whose progress was banked when the drain began; its
// unelapsed drain charge is refunded instead, so busy time stays
// exactly work + overhead + lost work either way.
func (s *Scheduler) failGang(j *Job) {
	s.running.del(j.End, j.ID)
	if j.preempting || j.banking {
		// Mid-drain: progress is already banked and the image write is
		// durable; refund the part of the drain charge that never
		// elapsed, settle the wave the drain belonged to, and requeue.
		if refund := j.End - s.now; refund > 0 {
			j.overhead -= refund
		}
		if j.preempting {
			s.ckptInFlight--
			j.preempting = false
		}
		j.banking = false
		j.hostDrain = false
		j.leaveWave()
	} else {
		s.loseProgress(j)
	}
	s.endSegment(j, "fault", true)
	j.faults++
	s.ctr.FaultKills++
	j.sliceEnd, j.sliceFull, j.slicing = false, 0, false
	j.ckptDue, j.forceStore, j.ckptSlice = false, false, 0
	if j.canceled {
		// A deferred Cancel was waiting on the drain the fault ended.
		s.finishCanceled(j)
		return
	}
	s.priceStoreRestore(j)
	s.requeue(j, "fault")
}

// voidPromises clears every pending job's recorded start-time promise:
// a fault shrank capacity, so bounds computed against the pre-fault
// machine no longer hold. The next pass re-derives reservations from
// the post-fault state. (The conservative promise hard-bound guarantee
// is scoped to fault-free runs for exactly this reason.)
func (s *Scheduler) voidPromises() {
	for _, p := range s.pending.jobs {
		if p != nil {
			p.promised = false
		}
	}
}

// armProactive arms j's next proactive-checkpoint boundary
// (Config.CheckpointInterval): the interval after the segment's work
// begins, the gang banks its progress — a store drain it keeps its seat
// through — bounding what a crash can destroy. Gated on an armed fault
// plan, so a fault-free run is bit-identical with the knob on or off. A
// boundary is not armed when the natural end (completion or quantum
// boundary) is closer than the bank would take to drain — banking then
// would only delay the cheaper settlement. A bank armed ahead of a
// quantum boundary displaces it but does not reset it: the slice
// deadline is stashed in j.ckptSlice and restored when the bank
// settles, so proactive checkpointing never starves the round-robin
// rotation (a slice yield banks progress through its own drain anyway).
func (s *Scheduler) armProactive(j *Job) {
	ck := s.cfg.CheckpointInterval
	if ck <= 0 || len(s.faultEvs) == 0 {
		return
	}
	at := j.segStart + j.segRestore + ck
	if at <= s.now || at >= j.End {
		return
	}
	natural := j.End
	if j.sliceEnd {
		natural = j.sliceFull
	}
	if natural-at <= s.storeDrainEstimate(j) {
		return
	}
	if j.sliceEnd {
		j.ckptSlice = j.End
	} else {
		j.ckptSlice = 0
	}
	j.End = at
	j.ckptDue = true
	j.sliceEnd, j.sliceFull = false, 0
}

// ckptBoundary fires an armed proactive-checkpoint boundary: the gang
// banks the segment's progress and drains a checkpoint to the store —
// always the store tier; a bank exists to survive node loss, and host
// RAM dies with the node — while holding its seat. The drain charge
// (write-link queue wait plus transfer) is checkpoint overhead exactly
// like a preemption drain's. advance has already popped j off the
// running set.
func (s *Scheduler) ckptBoundary(j *Job) {
	j.ckptDue = false
	s.bankProgress(j)
	cost := s.cfg.CheckpointCost(j)
	start := s.bookDrain(j, cost)
	j.banking = true
	j.End = start + cost
	if s.rec != nil {
		s.record(Event{Time: s.now, Kind: EvDrainBegin, Job: j.ID, From: s.now, To: j.End, Alloc: j.Alloc.Ranges, Detail: "bank"})
		s.record(Event{Time: s.now, Kind: EvStoreWrite, Job: j.ID, From: start, To: j.End, Detail: "bank"})
	}
	s.running.add(j)
}

// bankSettle lands a proactive checkpoint: the segment closes at the
// drain end (a durable History boundary — exactly what failGang
// restarts from) with the gang kept seated, and the next segment opens
// in place at the current instant with no restore prefix — the state
// never left the device. A deferred Cancel waiting on the drain frees
// the gang and discards the job instead. advance has already popped j
// off the running set.
func (s *Scheduler) bankSettle(j *Job) {
	j.banking = false
	s.endSegment(j, "bank", j.canceled)
	if j.canceled {
		s.finishCanceled(j)
		return
	}
	j.banks++
	s.ctr.Banks++
	s.captureImage(j)
	j.segStart, j.segRestore = s.now, 0
	j.End = s.now + max(time.Duration(float64(j.workLeft)*s.trunkFactor(j.Alloc.CrossesTrunk)), time.Millisecond)
	s.armSlice(j)
	s.running.add(j)
}
