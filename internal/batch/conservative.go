package batch

import (
	"sort"
	"time"
)

// Conservative backfilling: unlike EASY, which reserves only for the
// blocked head, every queued job is planned against a capacity profile
// — busy-node counts over future virtual time, built from running jobs
// and the reservations of everything ahead in the queue. A job starts
// out of order only when its reserved slot begins now, so no earlier
// job's reservation is ever pushed back by a backfill.
//
// The profile tracks node *counts*, not identities. That is exact: the
// placement engine assembles any k free eligible nodes into a gang, so
// reservations are honored by construction.
//
// Reservations are planned once and kept until something they rest on
// moves. A sweep walks the queue in order and reuses the reservation
// the previous sweep gave a job when all of these hold: the profile the
// running set builds equals, from now on, the previous sweep's base
// plus the intervals its starts booked; every job ahead of it in this
// sweep was reused, or started on exactly its reserved slot; its own
// slot length, node cap and eviction settlement are unchanged, and it
// follows the same predecessors; and the reserved instant has not
// passed. From the first job that fails one of them, the sweep searches
// the profile for it and for every job behind it. Reuse changes no
// decision: a search is a pure function of the profile from now on, the
// slot length and the cap (docs/ARCHITECTURE.md has the argument, and
// the test-only Scheduler.replanAll, which searches every job, is its
// oracle).
//
// When reserved durations equal realized ones (runtimes match
// estimates, no placement-dependent trunk stretch), the plan is realized
// exactly and every job starts no later than its first promise.
// Placement-dependent stretch (or estimate overruns) makes slots end
// earlier or later than planned; re-planning then compresses the
// schedule, which can shift an individual job's slot in either direction
// even though no backfill ever delays the reservations of the plan it
// was admitted under.
//
// Under time-slicing (Config.Quantum) the profile sees a running gang's
// next yield point — its quantum boundary or drain end — rather than
// its completion, so reservations are best-effort: a suspended gang
// re-enters the queue with its full remaining estimate and is
// re-planned like any other pending job.

// profile is a step function of planned busy-node counts: busy[i] holds
// over [times[i], times[i+1]), and the last entry extends to infinity.
type profile struct {
	times []time.Duration
	busy  []int
}

// buildProfile snapshots the current machine state into the scheduler's
// one profile (its arrays are reused): busy nodes now, dropping as each
// running job (or checkpoint drain) ends on schedule. The completion
// events come from the running set's in-order walk — already
// (End, ID)-sorted — so a pass no longer collects and sorts the running
// set; equal instants merge additively exactly as the sorted event list
// did.
func (s *Scheduler) buildProfile() *profile {
	p := &s.prof
	p.times = append(p.times[:0], s.now)
	p.busy = append(p.busy[:0], s.cfg.Cluster.Size()-s.cfg.Cluster.FreeNodes())
	s.running.each(func(r *Job) {
		last := len(p.times) - 1
		if r.End == p.times[last] {
			p.busy[last] -= r.Alloc.Count
			return
		}
		p.times = append(p.times, r.End)
		p.busy = append(p.busy, p.busy[last]-r.Alloc.Count)
	})
	return p
}

// insert splits intervals so a breakpoint exists exactly at t (>= the
// profile start) and returns its index.
func (p *profile) insert(t time.Duration) int {
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] >= t })
	if i < len(p.times) && p.times[i] == t {
		return i
	}
	// t falls inside interval i-1 (or beyond the last breakpoint, where
	// the tail value carries over).
	p.times = append(p.times, 0)
	p.busy = append(p.busy, 0)
	copy(p.times[i+1:], p.times[i:])
	copy(p.busy[i+1:], p.busy[i:])
	p.times[i] = t
	p.busy[i] = p.busy[i-1]
	return i
}

// add reserves k nodes over [from, to).
func (p *profile) add(from, to time.Duration, k int) {
	if to <= from {
		return
	}
	a := p.insert(from)
	b := p.insert(to)
	for i := a; i < b; i++ {
		p.busy[i] += k
	}
}

// equalFrom reports whether p and q are the same step function over
// [t, ∞), breakpoint for breakpoint; t must not precede either
// profile's start. Both sides are built so that the count changes at
// every breakpoint (a completion or a booked interval's end drops it),
// so comparing the representations compares the functions; were one not,
// the comparison would only err towards a search. O(len(p) + len(q)).
func (p *profile) equalFrom(q *profile, t time.Duration) bool {
	i, k := p.at(t), q.at(t)
	if len(p.times)-i != len(q.times)-k || p.busy[i] != q.busy[k] {
		return false
	}
	for i, k = i+1, k+1; i < len(p.times); i, k = i+1, k+1 {
		if p.times[i] != q.times[k] || p.busy[i] != q.busy[k] {
			return false
		}
	}
	return true
}

// at returns the index of the interval holding instant t.
func (p *profile) at(t time.Duration) int {
	return sort.Search(len(p.times), func(i int) bool { return p.times[i] > t }) - 1
}

// horizon is the profile's last breakpoint: past it the count never
// changes.
func (p *profile) horizon() time.Duration { return p.times[len(p.times)-1] }

// earliest returns the first instant at which busy stays at or below
// limit for a full window of length d, or the horizon when no window
// fits. The horizon answer is reachable two ways, and both happen:
//   - limit >= 0, but down nodes count as busy for ever (the profile
//     holds no repair instants), so the tail stays above the limit
//     while the gang needs a node that is down;
//   - limit < 0: fewer nodes are eligible than the gang is wide,
//     because resident host images pin their memory, and every window
//     violates.
//
// Either way the job is held at the horizon until a repair or an
// eviction changes the profile.
func (p *profile) earliest(d time.Duration, limit int) time.Duration {
	t := p.times[0]
	i := 0
	for {
		viol := -1
		for j := i; j < len(p.times); j++ {
			if j > i && p.times[j] >= t+d {
				break
			}
			if p.busy[j] > limit {
				viol = j
				break
			}
		}
		if viol < 0 {
			return t
		}
		if viol+1 >= len(p.times) {
			return p.horizon() // the tail violates: no window fits
		}
		t = p.times[viol+1]
		i = viol + 1
	}
}

// planEntry is one reservation of a conservative sweep: the job, the
// inputs its profile search took besides the profile, and the answer.
type planEntry struct {
	job       *Job
	d         time.Duration // slot length
	limit     int           // busy-node cap over the slot
	demoteEnd time.Duration // the eviction settlement t was clamped to
	t         time.Duration // profile.earliest's answer, before the clamp
}

// slot is the interval the entry reserves.
func (e *planEntry) slot() (from, to time.Duration) {
	from = max(e.t, e.demoteEnd)
	return from, from + e.d
}

// plan is what one conservative sweep leaves the next: its reservations
// in sweep order and the profile it expects the running set to build.
type plan struct {
	last, next []planEntry // the previous sweep's entries; this sweep's
	base       profile     // this sweep's base plus the intervals its starts booked
	complete   bool        // last is a whole sweep's, not one cut short by a restart or a drain
	// pos counts the entries of last this sweep has reused or started
	// on; it is -1 once a job was searched. While it is >= 0, prof holds
	// the base alone: those entries' slots are added only when a search
	// needs the profile ahead of it.
	pos int
}

// beginPlan opens a sweep over base prof: it may reuse the previous
// sweep's plan only if that sweep ran to its end and prof is the
// profile it left behind.
func (s *Scheduler) beginPlan(prof *profile) {
	p := &s.plan
	p.pos = -1
	if p.complete && !s.replanAll && prof.equalFrom(&p.base, s.now) {
		p.pos = 0
	}
	p.complete = false
	p.next = p.next[:0]
	p.base.times = append(p.base.times[:0], prof.times...)
	p.base.busy = append(p.base.busy[:0], prof.busy...)
}

// reservation returns profile.earliest(d, limit) for j at its place in
// the sweep: the previous sweep's answer when its inputs are unchanged,
// else a search of prof, after which every later job is searched too.
func (s *Scheduler) reservation(prof *profile, j *Job, d time.Duration, limit int) time.Duration {
	p := &s.plan
	if p.pos >= 0 {
		if p.pos < len(p.last) {
			e := &p.last[p.pos]
			if e.job == j && e.d == d && e.limit == limit && e.demoteEnd == j.demoteEnd && e.t >= s.now {
				p.pos++
				return e.t
			}
		}
		p.materialize(prof, p.pos)
	}
	s.searches++
	return prof.earliest(d, limit)
}

// materialize books the slots of the first n entries of last into prof
// and ends reuse for the rest of the sweep.
func (p *plan) materialize(prof *profile, n int) {
	for i := range p.last[:n] {
		from, to := p.last[i].slot()
		prof.add(from, to, p.last[i].job.Nodes)
	}
	p.pos = -1
}

// started books j, just started at now on slot length d reserved at t.
// A start on exactly its reused slot is already booked by that entry;
// any other start ends reuse.
func (p *plan) started(prof *profile, j *Job, now, t, d time.Duration) {
	if p.pos < 0 || j.End != t+d || j.Alloc.Count != j.Nodes {
		if p.pos >= 0 {
			p.materialize(prof, p.pos-1) // all but j's own entry
		}
		prof.add(now, j.End, j.Alloc.Count)
	}
	p.base.add(now, j.End, j.Alloc.Count)
}

// reserve books e's slot and keeps e for the next sweep.
func (p *plan) reserve(prof *profile, e planEntry) {
	if p.pos < 0 {
		from, to := e.slot()
		prof.add(from, to, e.job.Nodes)
	}
	p.next = append(p.next, e)
}

// end keeps this sweep's entries for the next sweep.
func (p *plan) end() {
	clear(p.last) // a finished job must not stay reachable from here
	p.last, p.next = p.next, p.last[:0]
	p.complete = true
}

// conservativePass plans the whole queue against the capacity profile
// in one sweep, starting jobs whose reservation begins now, and reports
// whether the sweep must restart from the queue head. A start behind
// the blocked head books the gang's real interval — what a rebuilt
// profile would carry — and the sweep goes on: its admission at now
// honored every reservation planned so far, so a re-plan would
// reproduce them. That fails, and the sweep restarts, when a planned
// job was capped below the machine size (eligible < size: a bound the
// admission never checked), when the real interval outlasts the
// reserved slot (an Actual overrun), or when the start booked
// store-link time (planned restore prefixes were priced off the link).
// A restarted or drained sweep leaves no plan: the next one searches
// every job.
//
// A job that fits no window under the profile's horizon — down nodes
// busy for ever in its tail, or fewer eligible nodes than its gang
// because resident images pin their memory — is reserved at the
// horizon (profile.earliest) and held there until a repair or an
// eviction changes the profile.
func (s *Scheduler) conservativePass() bool {
	prof := s.buildProfile()
	s.beginPlan(prof)
	size := s.cfg.Cluster.Size()
	pass := s.beginPass()
	var head *Job // the blocked head: the first job held to a reservation
	implied := true
	for _, j := range s.pending.ordered(s.less) {
		if j == nil {
			continue
		}
		// Reservations use the worst-case trunk stretch and the
		// worst-case restore prefix (a host image may have to migrate
		// over the store if its home is taken) so a slot is always
		// long enough for whatever placement the start gets.
		d := s.restorePrefixWorst(j) + s.stretched(j.estLeft(), true)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		// Eligible-node lower bound: free eligible >= eligible - busy,
		// so capping busy at eligible-k guarantees a feasible gang
		// even on heterogeneous memory. The
		// count uses *available* memory (resident images pin their
		// footprint; j's own image is its to spend), so a promised
		// slot is not booked on RAM a suspended image occupies.
		eligible := 0
		s.withOwnImageLifted(j, func() {
			eligible = s.cfg.Cluster.NodesWithAvail(j.memNeed)
		})
		limit := eligible - j.Nodes
		if c := size - j.Nodes; c < limit {
			limit = c
		}
		e := planEntry{job: j, d: d, limit: limit, demoteEnd: j.demoteEnd, t: s.reservation(prof, j, d, limit)}
		t, _ := e.slot() // cannot start before its image finishes evicting
		// A start behind the blocked head is a backfill.
		if link := s.link; t == s.now && s.tryStart(j, head != nil, 0, false) {
			if s.restartPerStart {
				return true
			}
			if head != nil {
				if !implied || j.End > s.now+d || s.link != link {
					return true
				}
				// A restarted sweep would try the head's preemption and
				// demotion again with the new gang running.
				before := s.ckptInFlight
				s.preemptFor(head)
				if s.ckptInFlight > before {
					return false // re-plan at the drain, as in the head branch below
				}
				s.demoteFor(head)
			}
			s.plan.started(prof, j, s.now, t, d)
			continue
		}
		if head == nil {
			before := s.ckptInFlight
			out := s.preemptFor(j)
			if s.ckptInFlight > before {
				// Checkpoints just began draining: the profile no
				// longer reflects the rewritten completion events, so
				// re-plan at the drain. A wave already in flight from
				// an earlier event does NOT abort the pass — its drain
				// ends are in the profile and backfill goes on.
				s.explainHead(pass, j, out)
				return false
			}
			// Memory pressure: a head blocked on suspended images (not
			// node occupancy) starts their demotion to the store. The
			// profile needs no re-plan — demotions change memory
			// availability at their settlement, not completion events.
			s.demoteFor(j)
			if s.rec != nil {
				s.explainConservative(pass, j, t, out, true)
			}
			head = j
		} else if s.rec != nil {
			s.explainConservative(pass, j, t, preemptOff, false)
		}
		if t > s.now && !j.promised {
			j.promise, j.promised = t, true
		}
		implied = implied && eligible == size
		s.plan.reserve(prof, e)
	}
	s.plan.end()
	return false
}

// explainConservative classifies one planned-but-not-started job in a
// conservative pass: held to its eviction settlement, held to a future
// reservation, or refused at an immediate slot (then the head's
// preemption outcome or the placement probe names the blocker).
func (s *Scheduler) explainConservative(pass int, j *Job, t time.Duration, out preemptOutcome, head bool) {
	switch {
	case t > s.now && t == j.demoteEnd:
		s.explain(pass, j, ReasonEvicting, t)
	case t > s.now:
		s.explain(pass, j, ReasonReservation, t)
	case head:
		s.explainHead(pass, j, out)
	default:
		s.explain(pass, j, s.classifyStart(j), 0)
	}
}
