package batch

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
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
// Each block of scanBlock slots, aligned on the absolute slot index,
// has a summary (qblock) that lets the backfill walk behind a blocked
// head jump a block refusing every job in it. A waiting job's bounds
// are fixed (Nodes is spec; doneWork moves only while a segment runs),
// so only slot changes move a summary: remove recounts its block; push,
// insert and compact drop the summaries from the first block they move
// (a block past the end of blocks is stale), and ordered() recounts them.
//
// qpos is exact after every ordered() — a recount writes the qpos of
// each job it visits — and a lower bound in between: insert shifts the
// jobs behind the new one right without rewriting theirs, and remove
// scans forward from it. A job not in the queue has a negative qpos.
type queue struct {
	jobs   []*Job
	first  int // jobs[:first] is all tombstones (skipped without rescanning)
	tombs  int // nil entries in jobs
	dirty  bool
	blocks []qblock // blocks[b] summarizes jobs[b*scanBlock:][:scanBlock]
}

// scanBlock is the width of a summarized block: 16 slots walk as fast
// as 8, and faster than 32 or 64 (docs/PERFORMANCE.md).
const scanBlock = 16

// qblock summarizes one block of queue slots for the backfill walk.
type qblock struct {
	live, minNodes int           // live jobs; the narrowest gang among them
	minLeft        time.Duration // the shortest estLeft among them
}

// refuses reports whether no job in the block can backfill: each gang is
// wider than free, or its remaining estimate alone overruns slack, the
// time left before the head's reservation. An empty block refuses.
func (b qblock) refuses(free int, slack time.Duration) bool {
	return b.minNodes > free || b.minLeft > slack
}

// summarize recounts block b from its slots and writes the exact qpos
// of each job in it.
func (q *queue) summarize(b int) qblock {
	sum := qblock{minNodes: math.MaxInt, minLeft: math.MaxInt64}
	for i := b * scanBlock; i < min((b+1)*scanBlock, len(q.jobs)); i++ {
		if j := q.jobs[i]; j != nil {
			j.qpos = i
			sum.live++
			sum.minNodes = min(sum.minNodes, j.Nodes)
			sum.minLeft = min(sum.minLeft, j.estLeft())
		}
	}
	return sum
}

// stale drops the summaries of slot i's block and every block after it.
func (q *queue) stale(i int) {
	q.blocks = q.blocks[:min(len(q.blocks), i/scanBlock)]
}

func (q *queue) push(j *Job) {
	j.qpos = len(q.jobs)
	q.jobs = append(q.jobs, j)
	q.stale(j.qpos)
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
	q.stale(i)
}

// ordered returns the pending jobs sorted by less; the slice is owned
// by the queue and valid until the next ordered call — a remove in
// between only nils a slot — and may contain nil tombstones the caller
// must skip. The cached order is reused until the queue is marked
// dirty, so a caller whose comparator depends on external state
// (fair-share usage) must set dirty when that state changes.
// Tombstones are squeezed out here once they dominate, so long-lived
// queues do not accumulate an unbounded nil tail the passes keep
// re-skipping. Every stale block summary is recounted before return.
func (q *queue) ordered(less func(a, b *Job) bool) []*Job {
	if q.dirty {
		q.compact()
		// The order is strict and total, so a job not before another is
		// after it. Stable: pdqsort is slower on nearly sorted queues.
		slices.SortStableFunc(q.jobs, func(a, b *Job) int {
			if less(a, b) {
				return -1
			}
			return 1
		})
		q.dirty = false
	} else if q.tombs > 64 && q.tombs*2 >= len(q.jobs) {
		q.compact()
	}
	for b := len(q.blocks); b*scanBlock < len(q.jobs); b++ {
		q.blocks = append(q.blocks, q.summarize(b))
	}
	for q.first < len(q.jobs) && q.jobs[q.first] == nil {
		q.first++
	}
	return q.jobs[q.first:]
}

// remove deletes a queued job by tombstoning its slot, found by a scan
// forward from qpos, and recounts the slot's block unless it is stale:
// a summary that kept the bounds of a job gone would refuse almost no
// block. A job with qpos < 0 is not in the queue, and one missing from
// it is a bug.
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
	if b := i / scanBlock; b < len(q.blocks) {
		q.blocks[b] = q.summarize(b)
	}
}

// compact squeezes tombstones out in place, preserving order; every
// summary goes stale, and ordered() rewrites every qpos.
func (q *queue) compact() {
	w := 0
	for _, j := range q.jobs {
		if j == nil {
			continue
		}
		q.jobs[w] = j
		w++
	}
	for i := w; i < len(q.jobs); i++ {
		q.jobs[i] = nil
	}
	q.jobs = q.jobs[:w]
	q.tombs, q.first = 0, 0
	q.stale(0)
}

func (q *queue) len() int { return len(q.jobs) - q.tombs }
