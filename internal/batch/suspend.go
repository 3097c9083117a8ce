package batch

import (
	"sort"
	"time"
)

// Suspend-to-host (Config.SuspendToHost): the cheap suspension tier.
// A checkpointed gang whose image fits in its nodes' free host memory
// skips the store round-trip entirely — the drain is the AGP readback
// into RAM, the resume is the download back, and neither touches the
// shared store link. The price is spatial instead of temporal: the
// image pins its footprint on the home nodes (Cluster.reserved), so a
// memory-hungry gang may find free nodes it cannot use. When that
// happens, the blocked job forces a *demotion*: the resident image is
// written out to the checkpoint store — paying, on the link's write
// timeline, exactly the store transfer its suspension skipped — and
// the memory frees when the write completes. A demoted job's next
// restore is a full store restore on the read timeline.
//
// GraCCA-style clusters (Schive et al.) and the classroom machines of
// George (2020) live on this trade: host memory is the fast checkpoint
// tier, network storage the capacious one, and the scheduler's job is
// to spill between them only under pressure.
//
// Accounting: the demotion write is NOT charged to the demoted job's
// overhead — the job holds no nodes while it drains out, and the
// busy ≡ work + overhead invariant prices only node-holding time. The
// cost shows up where it is really paid: the write link is occupied
// (delaying drains and, in half-duplex, restores), the waiter waits
// for the settlement, and the demoted job's next restore rides the
// store path. Report.Demotions / Report.DemotionTime record it.

// withOwnImageLifted runs body with j's own host-image reservation
// lifted: a hypothetical placement of j spends that memory exactly the
// way tryStart will at the real dispatch, so every decision site that
// asks "could j be seated?" — wave admission, the EASY shadow,
// quantum-boundary yields, demotion pressure, conservative capacity
// bounds — must not count j's own image against it. A job
// mid-eviction keeps its reservation (the write is using it).
func (s *Scheduler) withOwnImageLifted(j *Job, body func()) {
	if !j.hostImage || j.demoteEnd != 0 {
		body()
		return
	}
	c := s.cfg.Cluster
	c.unreserve(j.Alloc, j.memNeed)
	body()
	c.reserve(j.Alloc, j.memNeed)
}

// demoteFor begins evicting suspended-to-host images when the blocked
// job j is memory-constrained: free nodes exist for its gang, but
// pinned images squeeze their available memory below j's footprint.
// The smallest sufficient set of images (ascending job ID, so replays
// are deterministic) starts its store write on the link's write
// timeline; each reservation holds until its write settles, when the
// scheduler re-runs placement. A no-op when j is blocked by node
// occupancy — fewer free nodes than its gang, which no eviction changes.
func (s *Scheduler) demoteFor(j *Job) {
	if !s.cfg.SuspendToHost || j.wavePending || s.cfg.Cluster.FreeNodes() < j.Nodes {
		// A preemption wave draining on j's behalf already accounts
		// for the capacity j needs (including the victims' own future
		// images); demoting more images on top would pay both prices
		// for one placement. If j is still blocked when the wave
		// settles, the next pass gets another look.
		return
	}
	s.withOwnImageLifted(j, func() { s.evictFor(j) })
}

// evictFor is demoteFor's body, run with j's own image lifted.
func (s *Scheduler) evictFor(j *Job) {
	c := s.cfg.Cluster
	if c.canPlace(j.Nodes, j.memNeed) {
		return // placeable already: blocked by policy, not memory
	}
	// Memory already on its way out — in-flight demotion writes and
	// migration pins — settles without any help, so count it as gone
	// before picking fresh victims: a pass firing inside an eviction
	// window must not evict one more image per event while the first
	// write finishes. (Snapshots, not the live slices: demote() below
	// appends to s.demoting, and those new entries keep their
	// reservations.)
	inflight := append([]*Job(nil), s.demoting...)
	pins := append([]pin(nil), s.pinned...)
	for _, d := range inflight {
		c.unreserve(d.Alloc, d.memNeed)
	}
	for _, p := range pins {
		c.unreserve(p.alloc, p.bytes)
	}
	defer func() {
		for _, d := range inflight {
			c.reserve(d.Alloc, d.memNeed)
		}
		for _, p := range pins {
			c.reserve(p.alloc, p.bytes)
		}
	}()
	if c.canPlace(j.Nodes, j.memNeed) {
		return // the settlements already in flight will admit j
	}
	var images []*Job
	for _, p := range s.pending.jobs {
		if p != nil && p.hostImage && p.demoteEnd == 0 && p != j {
			images = append(images, p)
		}
	}
	if len(images) == 0 {
		return
	}
	sort.Slice(images, func(i, k int) bool { return images[i].ID < images[k].ID })
	var picked []*Job
	admitted := false
	for _, d := range images {
		c.unreserve(d.Alloc, d.memNeed)
		picked = append(picked, d)
		if c.canPlace(j.Nodes, j.memNeed) {
			admitted = true
			break
		}
	}
	if !admitted {
		// Even a fully drained RAM tier would not admit j: put every
		// trial release back and leave the images resident.
		for _, d := range picked {
			c.reserve(d.Alloc, d.memNeed)
		}
		return
	}
	// Minimize: an early trial release may have contributed nothing
	// (its nodes are occupied, or a later image alone unblocked j).
	// Keep each picked image resident if re-pinning it leaves j
	// placeable; demoting it would pay a store write for no one.
	kept := picked[:0]
	for _, d := range picked {
		c.reserve(d.Alloc, d.memNeed)
		if c.canPlace(j.Nodes, j.memNeed) {
			continue // stays in RAM
		}
		c.unreserve(d.Alloc, d.memNeed)
		kept = append(kept, d)
	}
	// The evicted images' memory stays pinned until each write
	// settles: re-pin now, release at settleDemotions.
	for _, d := range kept {
		c.reserve(d.Alloc, d.memNeed)
		s.demote(d)
	}
}

// demote books one image's eviction write on the store link: the
// transfer is the store leg its host suspension skipped (checkpoint
// cost minus the bus-only drain), it queues behind in-flight drains,
// and the image's memory stays pinned until the write ends.
func (s *Scheduler) demote(d *Job) {
	cost := s.storeWriteLeg(d)
	start := s.link.reserveWrite(s.now, cost)
	d.demoteEnd = start + cost
	s.demoting = append(s.demoting, d)
	s.ctr.Demotions++
	s.ctr.DemotionTime += cost
	if s.rec != nil {
		s.record(Event{Time: s.now, Kind: EvDemoteBegin, Job: d.ID, From: start, To: d.demoteEnd, Alloc: d.Alloc.Ranges})
		s.record(Event{Time: s.now, Kind: EvStoreWrite, Job: d.ID, From: start, To: d.demoteEnd, Detail: "demote"})
	}
}

// pin is host memory held past its owner's dispatch: a migrating job's
// home image stays pinned until its outbound store write settles.
type pin struct {
	alloc Allocation
	bytes int64
	at    time.Duration // settlement instant: unreserve then
}

// pinUntil schedules the release of an already-made reservation at a
// future settlement instant.
func (s *Scheduler) pinUntil(a Allocation, bytes int64, at time.Duration) {
	s.pinned = append(s.pinned, pin{alloc: a, bytes: bytes, at: at})
}

// settleDemotions releases the reservations of images whose store
// write has completed by the current instant — demoted images get
// their next dispatch re-priced as a full store restore, migration
// pins simply unreserve.
func (s *Scheduler) settleDemotions() {
	kept := s.demoting[:0]
	for _, d := range s.demoting {
		if d.demoteEnd > s.now {
			kept = append(kept, d)
			continue
		}
		if s.rec != nil {
			s.record(Event{Time: s.now, Kind: EvDemoteEnd, Job: d.ID, Alloc: d.Alloc.Ranges})
		}
		s.cfg.Cluster.unreserve(d.Alloc, d.memNeed)
		d.hostImage = false
		d.demoteEnd = 0
		d.restoreCost = s.cfg.RestoreCost(d)
	}
	s.demoting = kept
	keptPins := s.pinned[:0]
	for _, p := range s.pinned {
		if p.at > s.now {
			keptPins = append(keptPins, p)
			continue
		}
		s.cfg.Cluster.unreserve(p.alloc, p.bytes)
	}
	s.pinned = keptPins
}

// nextDemotion returns the earliest pending settlement (demotion write
// or migration pin) — an event the Run loop must advance to even when
// nothing runs, or the memory those reservations hold would never
// free for whoever waits on it.
func (s *Scheduler) nextDemotion() (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, d := range s.demoting {
		if !found || d.demoteEnd < best {
			best = d.demoteEnd
			found = true
		}
	}
	for _, p := range s.pinned {
		if !found || p.at < best {
			best = p.at
			found = true
		}
	}
	return best, found
}
