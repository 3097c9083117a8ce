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
//     job against a bitmap copy per blocked pass — endTreap keeps the
//     running set in an order-statistic tree keyed by completion event,
//     so the count-based shadow is one O(log running) prefix-sum descent
//     and the conservative profile is one in-order walk instead of a
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

// endTreap is the running set: an order-statistic treap over the
// running jobs, keyed by completion event (End, ID) with per-subtree
// node-count sums — the loop's event queue (min, popMin) and the
// event-sorted capacity profile in one structure. coverTime answers the
// incremental EASY shadow ("earliest completion instant by which at
// least deficit nodes have freed") in O(log running); each walks the
// jobs ascending for the conservative profile, the shadow replay and
// every listing. Entries are added at dispatch, removed when their
// event fires or a cancel or fault cuts the gang off, and re-keyed (del,
// then add) when a checkpoint drain rewrites a completion event.
type endTreap struct {
	nodes []endNode
	free  []int32
	root  int32
}

// endNode keeps its own copy of the key: a re-key deletes under the End
// the entry was added with, whatever job.End has become since.
type endNode struct {
	end   time.Duration
	id    int
	count int
	sum   int // subtree total of count
	prio  uint64
	job   *Job
	l, r  int32
}

func (t *endTreap) init() { t.root = -1 }

func (t *endTreap) len() int { return len(t.nodes) - len(t.free) }

// treapPrio derives a deterministic heap priority from the entry key —
// replays insert the same keys in the same order, so the tree shape
// (and every downstream iteration) is reproducible.
func treapPrio(end time.Duration, id int) uint64 {
	z := uint64(end) ^ uint64(id)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

func (t *endTreap) sumOf(h int32) int {
	if h < 0 {
		return 0
	}
	return t.nodes[h].sum
}

func (t *endTreap) update(h int32) {
	n := &t.nodes[h]
	n.sum = n.count + t.sumOf(n.l) + t.sumOf(n.r)
}

func (t *endTreap) keyLess(end time.Duration, id int, h int32) bool {
	n := &t.nodes[h]
	if end != n.end {
		return end < n.end
	}
	return id < n.id
}

func (t *endTreap) rotRight(h int32) int32 {
	l := t.nodes[h].l
	t.nodes[h].l = t.nodes[l].r
	t.nodes[l].r = h
	t.update(h)
	t.update(l)
	return l
}

func (t *endTreap) rotLeft(h int32) int32 {
	r := t.nodes[h].r
	t.nodes[h].r = t.nodes[r].l
	t.nodes[r].l = h
	t.update(h)
	t.update(r)
	return r
}

// add inserts running job j under its current completion event
// (j.End, j.ID), freeing j.Alloc.Count nodes when it fires.
func (t *endTreap) add(j *Job) {
	var idx int32
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.nodes = append(t.nodes, endNode{})
		idx = int32(len(t.nodes) - 1)
	}
	n := j.Alloc.Count
	t.nodes[idx] = endNode{end: j.End, id: j.ID, count: n, sum: n, prio: treapPrio(j.End, j.ID), job: j, l: -1, r: -1}
	t.root = t.insert(t.root, idx)
}

func (t *endTreap) insert(h, x int32) int32 {
	if h < 0 {
		return x
	}
	if t.keyLess(t.nodes[x].end, t.nodes[x].id, h) {
		t.nodes[h].l = t.insert(t.nodes[h].l, x)
		if t.nodes[t.nodes[h].l].prio < t.nodes[h].prio {
			return t.rotRight(h)
		}
	} else {
		t.nodes[h].r = t.insert(t.nodes[h].r, x)
		if t.nodes[t.nodes[h].r].prio < t.nodes[h].prio {
			return t.rotLeft(h)
		}
	}
	t.update(h)
	return h
}

// del removes the event keyed (end, id); it panics if the key is
// absent — the scheduler and the treap must never disagree about the
// running set, and a silent miss here would surface as a wrong shadow
// far from the bug.
func (t *endTreap) del(end time.Duration, id int) {
	found := false
	t.root = t.remove(t.root, end, id, &found)
	if !found {
		panic(fmt.Sprintf("batch: end index: no event (%v, job %d)", end, id))
	}
}

func (t *endTreap) remove(h int32, end time.Duration, id int, found *bool) int32 {
	if h < 0 {
		return -1
	}
	n := &t.nodes[h]
	if end == n.end && id == n.id {
		*found = true
		h = t.sink(h)
		return h
	}
	if t.keyLess(end, id, h) {
		t.nodes[h].l = t.remove(t.nodes[h].l, end, id, found)
	} else {
		t.nodes[h].r = t.remove(t.nodes[h].r, end, id, found)
	}
	t.update(h)
	return h
}

// sink rotates h down until it is a leaf, then frees it.
func (t *endTreap) sink(h int32) int32 {
	n := &t.nodes[h]
	switch {
	case n.l < 0 && n.r < 0:
		n.job = nil // a free slot must not keep a finished job alive
		t.free = append(t.free, h)
		return -1
	case n.l < 0 || (n.r >= 0 && t.nodes[n.r].prio < t.nodes[n.l].prio):
		r := t.rotLeft(h)
		t.nodes[r].l = t.sink(h)
		t.update(r)
		return r
	default:
		l := t.rotRight(h)
		t.nodes[l].r = t.sink(h)
		t.update(l)
		return l
	}
}

// coverTime returns the earliest event instant by which the cumulative
// freed-node count reaches deficit — the incremental EASY shadow. ok is
// false when even every tracked completion frees too few nodes.
func (t *endTreap) coverTime(deficit int) (time.Duration, bool) {
	h := t.root
	for h >= 0 {
		n := &t.nodes[h]
		if ls := t.sumOf(n.l); ls >= deficit {
			h = n.l
		} else {
			deficit -= ls + n.count
			if deficit <= 0 {
				return n.end, true
			}
			h = n.r
		}
	}
	return 0, false
}

// min returns the job whose completion event is earliest, nil when
// nothing runs.
func (t *endTreap) min() *Job {
	h := t.root
	if h < 0 {
		return nil
	}
	for t.nodes[h].l >= 0 {
		h = t.nodes[h].l
	}
	return t.nodes[h].job
}

// popMin removes and returns the job whose completion event is
// earliest if that event is due by at, in one walk down the left spine;
// nil when nothing runs or the earliest event is later.
func (t *endTreap) popMin(at time.Duration) *Job {
	var j *Job
	if t.root >= 0 {
		t.root = t.popLeftmost(t.root, at, &j)
	}
	return j
}

// popLeftmost removes the leftmost entry of subtree h when it is due by
// at, storing its job in *out, and returns the subtree's new root. The
// leftmost entry has no left child, so its right subtree takes its place
// and the heap order holds without rotations.
func (t *endTreap) popLeftmost(h int32, at time.Duration, out **Job) int32 {
	n := &t.nodes[h]
	if n.l >= 0 {
		n.l = t.popLeftmost(n.l, at, out)
		if *out != nil {
			t.update(h)
		}
		return h
	}
	if n.end > at {
		return h
	}
	*out = n.job
	n.job = nil // a free slot must not keep a finished job alive
	t.free = append(t.free, h)
	return n.r
}

// each visits every running job ascending by (End, ID). fn must not
// add to or delete from the treap.
func (t *endTreap) each(fn func(j *Job)) { t.walk(t.root, fn) }

func (t *endTreap) walk(h int32, fn func(j *Job)) {
	for h >= 0 {
		t.walk(t.nodes[h].l, fn)
		fn(t.nodes[h].job)
		h = t.nodes[h].r
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
