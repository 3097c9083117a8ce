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
// Reservations are re-planned on every scheduling event. When reserved
// durations equal realized ones (runtimes match estimates, no
// placement-dependent trunk stretch), the plan is realized exactly and
// every job starts no later than its first promise. Placement-dependent
// stretch (or estimate overruns) makes slots end earlier or later than
// planned; re-planning then compresses the schedule, which can shift an
// individual job's slot in either direction even though no backfill
// ever delays the reservations of the plan it was admitted under.
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

// earliest returns the first instant at which busy stays at or below
// limit for a full window of length d. limit must be >= 0 (the far
// future is always idle, so the search terminates).
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
			// The infinite tail violates: impossible for limit >= 0
			// because every running job eventually ends.
			return p.times[len(p.times)-1]
		}
		t = p.times[viol+1]
		i = viol + 1
	}
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
func (s *Scheduler) conservativePass() bool {
	prof := s.buildProfile()
	size := s.cfg.Cluster.Size()
	pass := s.beginPass()
	var head *Job // the blocked head: the first job held to a reservation
	implied := true
	for _, j := range s.pending.ordered(s.less) {
		if j == nil || j.arrive > s.now {
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
		t := prof.earliest(d, limit)
		if t < j.demoteEnd {
			t = j.demoteEnd // cannot start before its image finishes evicting
		}
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
			prof.add(s.now, j.End, j.Alloc.Count)
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
		prof.add(t, t+d, j.Nodes)
	}
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
