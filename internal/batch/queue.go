package batch

import (
	"fmt"
	"sort"
)

// queue holds the jobs that have arrived and wait to start; a future
// arrival waits in the arrival heap instead and enters here when the
// clock reaches it (Scheduler.advance). It is a lazily sorted slice rather
// than a heap because every scheduling pass scans the whole eligible
// prefix in order (FIFO head-of-line, backfill candidates), not just the
// top. The discipline comparator is supplied by the scheduler
// (fair-share reorders by decayed usage); every comparator must end on
// the round-robin-key-then-job-ID tie-break (Job.rrKey: submit time, or
// the last slice-suspension instant for a gang suspended at a quantum
// boundary) so equal-priority jobs keep a stable, replay-deterministic
// order and time-sliced gangs resume behind the waiters they yielded
// to. The order is then strict and total, so a job's rank in it is
// unique.
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
//
// qpos is exact after a sort or a compaction and a lower bound in
// between: insert shifts the jobs behind the new one right without
// rewriting theirs, and remove scans forward from it. A job not in the
// queue has a negative qpos.
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

// insert places j at its rank in a sorted queue: a binary search over
// the live slots (a tombstone answers for the next live job), then one
// shift of the tail. A queue that owes a sort just takes j at the end.
func (q *queue) insert(j *Job, less func(a, b *Job) bool) {
	if q.dirty {
		q.push(j)
		return
	}
	jobs := q.jobs
	i := q.first + sort.Search(len(jobs)-q.first, func(k int) bool {
		for k += q.first; k < len(jobs); k++ {
			if p := jobs[k]; p != nil {
				return less(j, p)
			}
		}
		return true
	})
	q.jobs = append(q.jobs, nil)
	copy(q.jobs[i+1:], q.jobs[i:])
	q.jobs[i] = j
	j.qpos = i
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

// remove deletes a queued job by tombstoning its slot, found by a scan
// forward from qpos; a job with qpos < 0 is not in the queue, and one
// missing from it is a bug.
func (q *queue) remove(j *Job) {
	if j.qpos < 0 {
		return
	}
	i := j.qpos
	for i < len(q.jobs) && q.jobs[i] != j {
		i++
	}
	if i == len(q.jobs) {
		panic(fmt.Sprintf("batch: queue: job %d not at or after slot %d", j.ID, j.qpos))
	}
	q.jobs[i] = nil
	q.tombs++
	j.qpos = -1
}

// compact squeezes tombstones out in place, preserving order and
// reindexing every qpos.
func (q *queue) compact() {
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
