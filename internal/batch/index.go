package batch

import (
	"container/heap"
	"fmt"
	"math/bits"
	"time"
)

// Datacenter-scale index structures. Three hot paths used to be linear
// scans over the whole machine or the whole queue, and all three fall
// over at 10k nodes / 1M jobs:
//
//   - free-node enumeration: candidates() walked every node per
//     placement probe — freeIndex keeps the maximal free runs
//     incrementally (split on commit, merge on release) plus a
//     constrained-node set, so enumeration is O(free runs), the
//     fragment count is O(1), and the memory-admission count is a
//     binary search;
//   - the EASY/conservative shadow: shadowStart replayed every running
//     job against a bitmap copy per blocked pass — endList keeps the
//     running set sorted by completion event, so the count-based shadow
//     sums node counts from the earliest completion until the deficit is
//     covered and the conservative profile is one walk instead of a
//     per-pass sort;
//   - the next-arrival search: nextEvent scanned every pending job —
//     arrivalHeap keeps the future arrivals in a binary heap, out of
//     the queue until the clock reaches them, so the next event peek
//     reads its top.
//
// DebugVerifyShadows cross-checks the incremental shadow against the
// full replay; the index property suite (index_test.go) runs it across
// all four policies with preemption, time-slicing, and suspend-to-host
// in play, and checks after every event step that the free-range index
// is exactly the complement of the running gangs and the down nodes.

// DebugVerifyShadows, when set, makes every incremental (count-based)
// EASY shadow computation also run the full replay it replaced and
// panic on any disagreement. It exists for tests — the property suite
// enables it — and costs the old O(running x nodes) replay per blocked
// pass, so leave it off in production runs.
var DebugVerifyShadows bool

// bitset is a two-level bitmap over node indices: words holds the bits,
// summary marks the non-zero words, so next/prev-set-bit queries skip
// empty regions 4096 indices at a time. All operations are
// allocation-free after init.
type bitset struct {
	words   []uint64
	summary []uint64
	n       int
}

func (b *bitset) init(n int) {
	b.n = n
	b.words = make([]uint64, (n+63)/64)
	b.summary = make([]uint64, (len(b.words)+63)/64)
}

func (b *bitset) set(i int) {
	w := i >> 6
	b.words[w] |= 1 << uint(i&63)
	b.summary[w>>6] |= 1 << uint(w&63)
}

func (b *bitset) clear(i int) {
	w := i >> 6
	b.words[w] &^= 1 << uint(i&63)
	if b.words[w] == 0 {
		b.summary[w>>6] &^= 1 << uint(w&63)
	}
}

func (b *bitset) has(i int) bool {
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// nextSet returns the smallest set index >= i, or -1.
func (b *bitset) nextSet(i int) int {
	if i >= b.n {
		return -1
	}
	w := i >> 6
	if m := b.words[w] & (^uint64(0) << uint(i&63)); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	// Scan the summary for the next non-zero word.
	sw := (w + 1) >> 6
	if sw >= len(b.summary) {
		return -1
	}
	if m := b.summary[sw] & (^uint64(0) << uint((w+1)&63)); m != 0 {
		w = sw<<6 + bits.TrailingZeros64(m)
		return w<<6 + bits.TrailingZeros64(b.words[w])
	}
	for sw++; sw < len(b.summary); sw++ {
		if b.summary[sw] != 0 {
			w = sw<<6 + bits.TrailingZeros64(b.summary[sw])
			return w<<6 + bits.TrailingZeros64(b.words[w])
		}
	}
	return -1
}

// prevSet returns the largest set index <= i, or -1.
func (b *bitset) prevSet(i int) int {
	if i < 0 {
		return -1
	}
	if i >= b.n {
		i = b.n - 1
	}
	w := i >> 6
	if m := b.words[w] & (^uint64(0) >> uint(63-i&63)); m != 0 {
		return w<<6 + 63 - bits.LeadingZeros64(m)
	}
	if w == 0 {
		return -1
	}
	sw := (w - 1) >> 6
	if m := b.summary[sw] & (^uint64(0) >> uint(63-(w-1)&63)); m != 0 {
		w = sw<<6 + 63 - bits.LeadingZeros64(m)
		return w<<6 + 63 - bits.LeadingZeros64(b.words[w])
	}
	for sw--; sw >= 0; sw-- {
		if b.summary[sw] != 0 {
			w = sw<<6 + 63 - bits.LeadingZeros64(b.summary[sw])
			return w<<6 + 63 - bits.LeadingZeros64(b.words[w])
		}
	}
	return -1
}

// freeIndex is the ordered free-range set, and the cluster's only
// record of which nodes are allocated: every maximal run of unallocated
// nodes, keyed by start (the starts bitset, which gives ascending
// enumeration and the predecessor query) with its length (runLen at
// the start index), plus the free count. It is maintained
// incrementally — alloc splits a run and release merges with both
// neighbors, each for one predecessor query — so the fragment count
// (runs) that the report samples at every allocation costs no scan.
// The runs are maximal, so the index is canonical: a free set has
// exactly one index, whatever sequence of allocs and releases built it.
type freeIndex struct {
	n      int
	runLen []int32 // valid at indices flagged in starts
	starts bitset
	runs   int
	free   int // nodes across all runs
}

func (x *freeIndex) init(n int) {
	x.n = n
	x.runLen = make([]int32, n)
	x.starts.init(n)
	// One run covering the whole machine.
	x.starts.set(0)
	x.runLen[0] = int32(n)
	x.runs = 1
	x.free = n
}

// isFree reports whether every node of [f, f+c) is unallocated, that
// is, whether one free run holds the whole range.
func (x *freeIndex) isFree(f, c int) bool {
	s := x.starts.prevSet(f)
	return s >= 0 && f+c <= s+int(x.runLen[s])
}

// alloc removes [f, f+c) — which must lie inside one free run — from
// the index, splitting the run into up to two remainders. An allocated
// node in the range panics: a double allocation.
func (x *freeIndex) alloc(f, c int) {
	s := x.starts.prevSet(f)
	if s < 0 || f+c > s+int(x.runLen[s]) {
		panic(fmt.Sprintf("batch: free index: alloc [%d,%d) outside any free run", f, f+c))
	}
	e := s + int(x.runLen[s])
	x.starts.clear(s)
	x.runs--
	x.free -= c
	if f > s { // left remainder [s, f)
		x.starts.set(s)
		x.runLen[s] = int32(f - s)
		x.runs++
	}
	if f+c < e { // right remainder [f+c, e)
		x.starts.set(f + c)
		x.runLen[f+c] = int32(e - f - c)
		x.runs++
	}
}

// release returns [f, f+c) to the index, merging with the adjacent free
// runs on either side. A free node in the range panics: a double
// release, which would otherwise merge runs silently.
func (x *freeIndex) release(f, c int) {
	start, end := f, f+c
	// The last run starting before end is the only one that can overlap
	// the range, and the left neighbor when it ends exactly at f.
	if s := x.starts.prevSet(end - 1); s >= 0 {
		switch e := s + int(x.runLen[s]); {
		case e > f:
			panic(fmt.Sprintf("batch: free index: release [%d,%d) overlaps free run [%d,%d)", f, end, s, e))
		case e == f:
			x.starts.clear(s)
			x.runs--
			start = s
		}
	}
	// Right neighbor: a run starting exactly at end.
	if end < x.n && x.starts.has(end) {
		e2 := end + int(x.runLen[end])
		x.starts.clear(end)
		x.runs--
		end = e2
	}
	x.starts.set(start)
	x.runLen[start] = int32(end - start)
	x.runs++
	x.free += c
}

// appendRuns appends every free run in ascending start order.
func (x *freeIndex) appendRuns(out []NodeRange) []NodeRange {
	for s := x.starts.nextSet(0); s >= 0; s = x.starts.nextSet(s + 1) {
		out = append(out, NodeRange{First: s, Count: int(x.runLen[s])})
	}
	return out
}

// endList is the running set: one entry per running gang, sorted
// latest-first by completion event (End, ID), so the earliest event is
// the last entry. It is the loop's event queue (min, popMin) and the
// event-sorted capacity profile in one slice: coverTime answers the
// count-based EASY shadow by summing node counts from the tail, and each
// walks the jobs ascending for the conservative profile, the shadow
// replay and every listing. Entries are added at dispatch, removed when
// their event fires or a cancel or fault cuts the gang off, and re-keyed
// (del, then add) when a checkpoint drain rewrites a completion event.
//
// An add or a del costs O(R) for R running gangs, the order of the walks
// the pass already makes over the set; the set is small on every
// measured workload (at most 304 gangs, 2-79 on average; the traffic
// table in docs/PERFORMANCE.md), and most completions land near the
// tail, so an add moves past few entries.
type endList []endEntry

// endEntry keeps its own copy of the key: a re-key deletes under the End
// the entry was added with, whatever job.End has become since.
type endEntry struct {
	end   time.Duration
	id    int
	count int
	job   *Job
}

// before reports whether the entry's event fires before (end, id).
func (e *endEntry) before(end time.Duration, id int) bool {
	return e.end < end || (e.end == end && e.id < id)
}

func (l endList) len() int { return len(l) }

// add inserts running job j under its current completion event
// (j.End, j.ID), freeing j.Alloc.Count nodes when it fires. The entry
// sinks from the tail past every entry that fires earlier.
func (l *endList) add(j *Job) {
	x := endEntry{end: j.End, id: j.ID, count: j.Alloc.Count, job: j}
	*l = append(*l, x)
	e := *l
	i := len(e) - 1
	for ; i > 0 && e[i-1].before(x.end, x.id); i-- {
		e[i] = e[i-1]
	}
	e[i] = x
}

// del removes the event keyed (end, id); it panics if the key is
// absent — the scheduler and the list must never disagree about the
// running set, and a silent miss here would surface as a wrong shadow
// far from the bug.
func (l *endList) del(end time.Duration, id int) {
	e := *l
	i := len(e) - 1
	for i >= 0 && e[i].before(end, id) {
		i--
	}
	if i < 0 || e[i].end != end || e[i].id != id {
		panic(fmt.Sprintf("batch: end index: no event (%v, job %d)", end, id))
	}
	copy(e[i:], e[i+1:])
	e[len(e)-1] = endEntry{} // a vacated slot must not keep a finished job alive
	*l = e[:len(e)-1]
}

// coverTime returns the earliest event instant by which the cumulative
// freed-node count reaches deficit — the incremental EASY shadow. ok is
// false when even every tracked completion frees too few nodes.
func (l endList) coverTime(deficit int) (time.Duration, bool) {
	for i := len(l) - 1; i >= 0; i-- {
		if deficit -= l[i].count; deficit <= 0 {
			return l[i].end, true
		}
	}
	return 0, false
}

// min returns the job whose completion event is earliest, nil when
// nothing runs.
func (l endList) min() *Job {
	if len(l) == 0 {
		return nil
	}
	return l[len(l)-1].job
}

// popMin removes and returns the job whose completion event is earliest
// if that event is due by at; nil when nothing runs or the earliest
// event is later.
func (l *endList) popMin(at time.Duration) *Job {
	e := *l
	if len(e) == 0 || e[len(e)-1].end > at {
		return nil
	}
	j := e[len(e)-1].job
	e[len(e)-1] = endEntry{} // a vacated slot must not keep a finished job alive
	*l = e[:len(e)-1]
	return j
}

// each visits every running job ascending by (End, ID). fn must not
// add to or delete from the list.
func (l endList) each(fn func(j *Job)) {
	for i := len(l) - 1; i >= 0; i-- {
		fn(l[i].job)
	}
}

// arrivalHeap is a container/heap of the jobs Submit holds for a future
// arrival, ordered by (arrival, ID): exactly the queued jobs that have
// not arrived. The clock move that reaches an arrival pops it into the
// queue; a cancel removes it by the index its qpos records (heapIndex).
// An entry copies its job's arrival, fixed while the job is here, so a
// comparison reads the job only on a tie.
type arrivalHeap []arrival

type arrival struct {
	at  time.Duration
	job *Job
}

// heapIndex maps an arrival-heap index to the qpos recording it, and
// back: -2 - i is negative, as no queue slot is, and never -1.
func heapIndex(i int) int { return -2 - i }

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) Less(i, k int) bool {
	if h[i].at != h[k].at {
		return h[i].at < h[k].at
	}
	return h[i].job.ID < h[k].job.ID
}
func (h arrivalHeap) Swap(i, k int) {
	h[i], h[k] = h[k], h[i]
	h[i].job.qpos, h[k].job.qpos = heapIndex(i), heapIndex(k)
}

func (h *arrivalHeap) Push(x any) {
	j := x.(*Job)
	j.qpos = heapIndex(len(*h))
	*h = append(*h, arrival{at: j.arrive, job: j})
}
func (h *arrivalHeap) Pop() any {
	old := *h
	j := old[len(old)-1].job
	old[len(old)-1] = arrival{} // a popped slot must not keep a finished job alive
	*h = old[:len(old)-1]
	j.qpos = -1
	return j
}

// push adds j's future arrival; a *Job passes through any unboxed.
func (h *arrivalHeap) push(j *Job) { heap.Push(h, j) }

// remove takes a canceled future arrival out of the heap.
func (h *arrivalHeap) remove(j *Job) { heap.Remove(h, heapIndex(j.qpos)) }

// next returns the earliest arrival.
func (h arrivalHeap) next() (time.Duration, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// popDue pops and returns the earliest arrival if it is due by now, nil
// if none is.
func (h *arrivalHeap) popDue(now time.Duration) *Job {
	if len(*h) == 0 || (*h)[0].at > now {
		return nil
	}
	return heap.Pop(h).(*Job)
}
