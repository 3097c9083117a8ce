package batch

import (
	"sort"
	"time"
)

// queue holds pending jobs. It is a lazily sorted slice rather than a
// heap because every scheduling pass scans the whole eligible prefix in
// order (FIFO head-of-line, backfill candidates), not just the top. The
// discipline comparator is supplied by the scheduler (fair-share
// reorders by decayed usage); every comparator must end on the
// round-robin-key-then-job-ID tie-break (Job.rrKey: submit time, or the
// last slice-suspension instant for a gang suspended at a quantum
// boundary) so equal-priority jobs keep a stable, replay-deterministic
// order and time-sliced gangs resume behind the waiters they yielded
// to.
//
// Removal is O(1) via tombstones: every job carries its slice index
// (Job.qpos), remove nils the slot, and iteration skips nils — so a
// dispatch out of a million-job queue no longer pays a linear identity
// scan plus an order-preserving copy. first tracks the live prefix
// (dispatch order correlates with queue order, so tombstones cluster at
// the front), and the slice compacts when tombstones pass a density
// threshold — in ordered(), never in remove: a scheduling sweep goes on
// ranging over ordered()'s slice across its own starts. Consumers of
// ordered() and jobs must skip nil entries.
type queue struct {
	jobs  []*Job
	first int // jobs[:first] is all tombstones (skipped without rescanning)
	tombs int // nil entries in jobs
	dirty bool
}

func (q *queue) push(j *Job) {
	j.qpos = len(q.jobs)
	q.jobs = append(q.jobs, j)
	q.dirty = true
}

// queueOrder adapts the job slice to sort.Stable while keeping each
// job's qpos in step with its slot. sort.Stable and sort.SliceStable
// realize the same (unique) stable permutation, so the resulting order
// is identical to the pre-tombstone sort.SliceStable call.
type queueOrder struct {
	jobs []*Job
	less func(a, b *Job) bool
}

func (o queueOrder) Len() int           { return len(o.jobs) }
func (o queueOrder) Less(i, k int) bool { return o.less(o.jobs[i], o.jobs[k]) }
func (o queueOrder) Swap(i, k int) {
	o.jobs[i], o.jobs[k] = o.jobs[k], o.jobs[i]
	o.jobs[i].qpos = i
	o.jobs[k].qpos = k
}

// ordered returns the pending jobs sorted by less; the slice is owned
// by the queue and valid until the next ordered call — a remove in
// between only nils a slot — and may contain nil tombstones the caller
// must skip. The cached order is reused until the queue is marked
// dirty, so a caller whose comparator depends on external state
// (fair-share usage) must set dirty when that state changes.
// Tombstones are squeezed out here once they dominate, so long-lived
// queues do not accumulate an unbounded nil tail the passes keep
// re-skipping.
func (q *queue) ordered(less func(a, b *Job) bool) []*Job {
	if q.dirty {
		q.compact()
		sort.Stable(queueOrder{jobs: q.jobs, less: less})
		q.dirty = false
	} else if q.tombs > 64 && q.tombs*2 >= len(q.jobs) {
		q.compact()
	}
	for q.first < len(q.jobs) && q.jobs[q.first] == nil {
		q.first++
	}
	return q.jobs[q.first:]
}

// remove deletes a job in O(1) by tombstoning its slot; qpos names the
// slot directly, with an identity check (and a defensive scan fallback)
// so a stale index can never evict the wrong job.
func (q *queue) remove(j *Job) {
	i := j.qpos
	if i < 0 || i >= len(q.jobs) || q.jobs[i] != j {
		i = -1
		for k, other := range q.jobs {
			if other == j {
				i = k
				break
			}
		}
		if i < 0 {
			return
		}
	}
	q.jobs[i] = nil
	q.tombs++
	j.qpos = -1
}

// compact squeezes tombstones out in place, preserving order and
// reindexing qpos.
func (q *queue) compact() {
	if q.tombs == 0 {
		q.first = 0
		return
	}
	w := 0
	for _, j := range q.jobs {
		if j == nil {
			continue
		}
		j.qpos = w
		q.jobs[w] = j
		w++
	}
	for i := w; i < len(q.jobs); i++ {
		q.jobs[i] = nil
	}
	q.jobs = q.jobs[:w]
	q.tombs, q.first = 0, 0
}

func (q *queue) len() int { return len(q.jobs) - q.tombs }

// nextArrival returns the earliest resolved arrival strictly after now
// among pending jobs. The live event loop reads the arrival heap
// instead (Scheduler.arrivals); this linear scan is kept as the
// brute-force reference TestArrivalHeapMatchesLinearScan cross-checks.
func (q *queue) nextArrival(now time.Duration) (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, j := range q.jobs {
		if j != nil && j.arrive > now && (!found || j.arrive < best) {
			best = j.arrive
			found = true
		}
	}
	return best, found
}
