package batch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// Property tests for the datacenter-scale index structures (index.go):
// the free-range index, the running set, and the arrival heap each
// answer a question the scheduler could also answer by brute force, so
// every test here cross-checks the index against a linear-scan
// reference. The free-range index is the cluster's only record of
// which nodes are allocated, so its reference is built from outside
// it: the test's own gangs and down nodes (TestFreeIndexMatchesScan),
// or the scheduler's running set and down flags (checkOccupancy, after
// every event step across the crossed policy/preemption/quantum/suspend
// matrix, with and without a fault storm). DebugVerifyShadows makes
// every incremental EASY shadow re-run the full replay across the same
// matrix.

// refRuns returns the maximal runs of the nodes [0, n) for which ok
// holds, ascending, each also cut at node cut (n for no cut).
func refRuns(n, cut int, ok func(i int) bool) []NodeRange {
	var out []NodeRange
	start := -1
	for i := 0; i <= n; i++ {
		in := i < n && ok(i)
		if start >= 0 && (!in || i == cut) {
			out = append(out, NodeRange{First: start, Count: i - start})
			start = -1
		}
		if in && start < 0 {
			start = i
		}
	}
	return out
}

// refUsed is the reference occupancy of an n-node cluster: the nodes of
// the live gangs and the down nodes.
func refUsed(n int, live []Allocation, down []int) []bool {
	used := make([]bool, n)
	for _, a := range live {
		for _, i := range a.Ranges.Nodes() {
			used[i] = true
		}
	}
	for _, i := range down {
		used[i] = true
	}
	return used
}

// refCanPlace is canPlace node by node over a reference occupancy: k
// eligible nodes, the count starting afresh at a severed trunk.
func refCanPlace(c *Cluster, used []bool, k int, need int64) bool {
	free := 0
	for i := range c.nodes {
		if i == c.trunkBound() {
			free = 0
		}
		if !used[i] && c.avail(i) >= need {
			free++
			if free == k {
				return true
			}
		}
	}
	return false
}

// refNodesWithAvail is the brute-force reference for NodesWithAvail.
func refNodesWithAvail(c *Cluster, need int64) int {
	n := 0
	for i := range c.nodes {
		if c.avail(i) >= need {
			n++
		}
	}
	return n
}

// checkFreeRuns requires the index's free runs, run count and free
// count to be exactly the complement of the reference occupancy used.
func checkFreeRuns(t *testing.T, c *Cluster, used []bool) {
	t.Helper()
	want := refRuns(len(used), len(used), func(i int) bool { return !used[i] })
	if got := c.idx.appendRuns(nil); !slices.Equal(got, want) || c.idx.runs != len(want) {
		t.Fatalf("index holds %d free runs %v, reference %v", c.idx.runs, got, want)
	}
	free := 0
	for _, u := range used {
		if !u {
			free++
		}
	}
	if got := c.FreeNodes(); got != free {
		t.Fatalf("FreeNodes() = %d, reference %d", got, free)
	}
}

// checkIndexAgainstScan cross-checks every index-backed cluster query
// against its linear reference over used, the occupancy the test
// tracked itself.
func checkIndexAgainstScan(t *testing.T, c *Cluster, used []bool, needs []int64) {
	t.Helper()
	checkFreeRuns(t, c, used)
	for _, need := range needs {
		got := c.eligibleRuns(need)
		want := refRuns(len(used), c.trunkBound(), func(i int) bool { return !used[i] && c.avail(i) >= need })
		if !slices.Equal(got, want) {
			t.Fatalf("need %d: eligibleRuns %v, reference %v", need, got, want)
		}
		if got, want := c.NodesWithAvail(need), refNodesWithAvail(c, need); got != want {
			t.Fatalf("need %d: NodesWithAvail %d, brute force %d", need, got, want)
		}
		for _, k := range []int{1, 3, 16, 24, 25, 40, 120} {
			if got, want := c.canPlace(k, need), refCanPlace(c, used, k, need); got != want {
				t.Fatalf("need %d, trunk down %v: canPlace(%d) = %v, reference %v", need, c.trunkDown, k, got, want)
			}
		}
	}
}

// TestFreeIndexMatchesScan drives the cluster through randomized
// allocate/release/respec/reserve/fault/trunk traffic and what-if
// probes, and asserts after every operation that the free-range index
// agrees exactly with a scan of the occupancy the test tracked itself —
// run boundaries, run and free counts, eligible-run refinement,
// canPlace, and memory-admission counts — and that a probe's undo
// restores the index exactly.
func TestFreeIndexMatchesScan(t *testing.T) {
	const nodes = 257 // deliberately not a multiple of 64: exercises bitset tails
	c := newTestCluster(nodes)
	rng := rand.New(rand.NewSource(42))
	base := c.baseMem
	needs := []int64{0, base / 2, base, base + 1}

	// A few nodes get divergent specs up front, so the constrained-set
	// refinement is live from the start.
	for i := 0; i < 8; i++ {
		n := rng.Intn(nodes)
		s := c.Spec(n)
		s.MemBytes = base / 2
		c.SetSpec(n, s)
	}

	var live []Allocation
	var pinned []Allocation // reservations to undo
	var down []int          // injected node faults to repair
	probes := 0
	for op := 0; op < 2000; op++ {
		switch r := rng.Intn(14); {
		case r < 4: // allocate
			k := 1 + rng.Intn(24)
			need := needs[rng.Intn(len(needs))]
			cands := c.candidates(k, need)
			if len(cands) > 0 {
				live = append(live, c.commit(cands[rng.Intn(len(cands))]))
			}
		case r < 7: // release
			if len(live) > 0 {
				i := rng.Intn(len(live))
				c.Release(live[i], time.Second)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		case r < 8: // flip one node's spec
			n := rng.Intn(nodes)
			s := c.Spec(n)
			if s.MemBytes == base {
				s.MemBytes = base / 2
			} else {
				s.MemBytes = base
			}
			c.SetSpec(n, s)
		case r < 9: // pin memory (a suspended image staying resident)
			f := rng.Intn(nodes - 4)
			a := Allocation{Ranges: []NodeRange{{First: f, Count: 1 + rng.Intn(4)}}}
			c.reserve(a, base/4)
			pinned = append(pinned, a)
		case r < 10: // unpin
			if len(pinned) > 0 {
				i := rng.Intn(len(pinned))
				c.unreserve(pinned[i], base/4)
				pinned[i] = pinned[len(pinned)-1]
				pinned = pinned[:len(pinned)-1]
			}
		case r < 11: // node down: a fault takes a free node out of service
			var free []int
			for i, u := range refUsed(nodes, live, down) {
				if !u {
					free = append(free, i)
				}
			}
			if len(free) > 0 {
				n := free[rng.Intn(len(free))]
				c.nodeDown(n)
				down = append(down, n)
			}
		case r < 12: // node up: repair returns a downed node to the free pool
			if len(down) > 0 {
				i := rng.Intn(len(down))
				c.nodeUp(down[i])
				down[i] = down[len(down)-1]
				down = down[:len(down)-1]
			}
		case r < 13: // trunk outage starts or ends
			c.trunkDown = !c.trunkDown
		default: // what-if probe: free some gangs and down nodes, then undo
			mark := len(c.probeLog)
			var keep []Allocation
			for _, a := range live {
				if rng.Intn(3) == 0 {
					c.probeFree(a.Ranges...)
				} else {
					keep = append(keep, a)
				}
			}
			var stillDown []int
			for _, i := range down {
				if rng.Intn(2) == 0 {
					c.probeFree(NodeRange{First: i, Count: 1})
				} else {
					stillDown = append(stillDown, i)
				}
			}
			checkIndexAgainstScan(t, c, refUsed(nodes, keep, stillDown), needs)
			if len(c.probeLog) > mark {
				probes++
			}
			c.probeUndo(mark)
			if len(c.probeLog) != mark {
				t.Fatalf("probe log holds %d ranges after undo to %d", len(c.probeLog), mark)
			}
		}
		checkIndexAgainstScan(t, c, refUsed(nodes, live, down), needs)
	}
	if probes == 0 {
		t.Fatal("vacuity: no what-if probe freed anything")
	}
}

// checkOccupancy is the occupancy oracle: it rebuilds the allocated
// nodes from the running set's gangs and the down flags alone, sharing
// no code with the free-range index, fails on a node held by two gangs
// or held while down, and requires the index's free runs to be the
// exact complement and FreeNodes() their count.
func checkOccupancy(t *testing.T, s *Scheduler) {
	t.Helper()
	c := s.cfg.Cluster
	holder := make([]*Job, c.Size())
	s.running.each(func(j *Job) {
		for _, i := range j.Alloc.Ranges.Nodes() {
			if h := holder[i]; h != nil {
				t.Fatalf("t=%v: node %d held by jobs %d and %d", s.now, i, h.ID, j.ID)
			}
			if c.down[i] {
				t.Fatalf("t=%v: node %d held by job %d while down", s.now, i, j.ID)
			}
			holder[i] = j
		}
	})
	used := make([]bool, c.Size())
	for i := range used {
		used[i] = holder[i] != nil || c.down[i]
	}
	checkFreeRuns(t, c, used)
}

// TestIndexPropertyAcrossPolicies steps the crossed property matrix,
// with and without a fault storm, and checks the occupancy oracle after
// every event step. A recorder is attached, so every blocked job's
// explanation probe (classifyStart) runs too, and DebugVerifyShadows
// re-runs the full replay
// against every incremental count-based EASY shadow (any drift panics
// inside the run). After each drain the running set must be empty —
// every dispatch pushed exactly one completion event and every
// completion, drain, and cancellation popped it.
func TestIndexPropertyAcrossPolicies(t *testing.T) {
	DebugVerifyShadows = true
	defer func() { DebugVerifyShadows = false }()

	const nodes, count = 32, 120
	for _, base := range propertyConfigs() {
		for _, faults := range []bool{false, true} {
			cfg := base
			if faults {
				cfg.Faults = stormPlan(77)
			}
			name := fmt.Sprintf("%v/preempt=%v/quantum=%v/host=%v/faults=%v", cfg.Policy, cfg.Preempt, cfg.Quantum, cfg.SuspendToHost, faults)
			t.Run(name, func(t *testing.T) {
				cfg.Cluster = newTestCluster(nodes)
				cfg.Recorder = &MemRecorder{}
				s := New(cfg)
				submitAll(t, s, SyntheticStream(5, count, nodes, 5*time.Second))
				checkOccupancy(t, s)
				for s.Step() {
					checkOccupancy(t, s)
				}
				rep := s.report()
				if len(rep.Jobs) != count {
					t.Fatalf("finished %d of %d jobs", len(rep.Jobs), count)
				}
				for _, j := range rep.Jobs {
					if j.State != Done && !(faults && j.State == Failed) {
						t.Fatalf("%s ended %v", j, j.State)
					}
				}
				if !faults && rep.Failed != 0 {
					t.Fatalf("%d jobs failed without faults", rep.Failed)
				}
				if n := s.running.len(); n != 0 {
					t.Fatalf("running set holds %d jobs after drain; every dispatch must be popped", n)
				}
			})
		}
	}
}

// TestOccupancyMisusePanics pins the panics that guard the free-range
// index against misuse — each would otherwise corrupt the only record
// of which nodes are allocated: a commit over an allocated node, a
// release of a wholly or partly free range, a fault on an allocated
// node, and a repair of a node that is up.
func TestOccupancyMisusePanics(t *testing.T) {
	gang := func(f, k int) Allocation {
		return Allocation{Ranges: NodeRanges{{First: f, Count: k}}, Count: k}
	}
	for _, tc := range []struct {
		name   string
		misuse func(c *Cluster)
	}{
		{"commit over an allocated node", func(c *Cluster) { occupy(c, 6, 4) }},
		{"release of a free range", func(c *Cluster) { c.Release(gang(10, 2), time.Second) }},
		{"release of a range free on its left", func(c *Cluster) { c.Release(gang(2, 4), time.Second) }},
		{"release of a range free on its right", func(c *Cluster) { c.Release(gang(6, 4), time.Second) }},
		{"release of a range free in its middle", func(c *Cluster) {
			occupy(c, 10, 2)
			c.Release(gang(4, 8), time.Second)
		}},
		{"release twice", func(c *Cluster) {
			a := occupy(c, 12, 2)
			c.Release(a, time.Second)
			c.Release(a, time.Second)
		}},
		{"nodeDown of an allocated node", func(c *Cluster) { c.nodeDown(5) }},
		{"nodeUp of a node that is up", func(c *Cluster) { c.nodeUp(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(16)
			occupy(c, 4, 4) // [4,8) allocated
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.misuse(c)
		})
	}
}

// TestNodeBusyPerRange drives random multi-range commits, releases and
// bare busy credits (the proactive bank of a gang that stays seated)
// and holds BusyTimes after every op to a node-by-node reference: one
// entry per node, each the sum of the credits that covered it. Gangs
// include single-node ranges at node 0 and ranges ending on the last
// node, the two edges of the difference array.
func TestNodeBusyPerRange(t *testing.T) {
	const nodes = 67
	c := newTestCluster(nodes)
	rng := rand.New(rand.NewSource(7))
	ref := make([]time.Duration, nodes)
	used := make([]bool, nodes)
	var live []Allocation
	credit := func(a Allocation, ran time.Duration) {
		for _, i := range a.Ranges.Nodes() {
			ref[i] += ran
		}
	}
	atZero, atLast := 0, 0
	for op := 0; op < 3000; op++ {
		ran := time.Duration(1+rng.Intn(1e6)) * time.Millisecond
		switch r := rng.Intn(4); {
		case r < 2: // commit a gang of up to three ranges cut from free runs
			var rs []NodeRange
			for _, f := range refRuns(nodes, nodes, func(i int) bool { return !used[i] }) {
				if len(rs) == 3 || rng.Intn(3) == 0 {
					continue
				}
				lo := f.First + rng.Intn(f.Count)
				hi := lo + 1 + rng.Intn(f.First+f.Count-lo)
				switch rng.Intn(4) {
				case 0: // one node at the run's start
					lo, hi = f.First, f.First+1
				case 1: // to the run's end
					hi = f.First + f.Count
				}
				if lo == 0 && hi == 1 {
					atZero++
				}
				if hi == nodes {
					atLast++
				}
				rs = append(rs, NodeRange{First: lo, Count: hi - lo})
			}
			if len(rs) == 0 {
				continue
			}
			a := c.commit(candidate{ranges: rs, crosses: c.rangesCrossTrunk(rs)})
			for _, i := range a.Ranges.Nodes() {
				used[i] = true
			}
			live = append(live, a)
		case r < 3: // release
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			c.Release(live[i], ran)
			credit(live[i], ran)
			for _, n := range live[i].Ranges.Nodes() {
				used[n] = false
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // bank busy time on a seated gang
			if len(live) == 0 {
				continue
			}
			a := live[rng.Intn(len(live))]
			c.creditBusy(a, ran)
			credit(a, ran)
		}
		got := c.BusyTimes()
		if len(got) != c.Size() {
			t.Fatalf("op %d: BusyTimes has %d entries, the cluster %d nodes", op, len(got), c.Size())
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("op %d: node %d busy %v, node-by-node reference %v", op, i, got[i], ref[i])
			}
		}
	}
	if atZero == 0 || atLast == 0 {
		t.Fatalf("gangs held %d single-node ranges at node 0 and %d ending on the last node, want both", atZero, atLast)
	}
}

// nextArrival is the brute-force next arrival: the earliest arrival
// after now of any job still queued, scanned over every job the
// scheduler holds.
func nextArrival(s *Scheduler) (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, j := range s.byID {
		if j.State == Queued && j.arrive > s.now && (!found || j.arrive < best) {
			best, found = j.arrive, true
		}
	}
	return best, found
}

// TestArrivalHeapMatchesLinearScan pins the arrival heap to the linear
// next-arrival scan it replaced: before every event step the two must
// agree on the next future arrival, including after cancellations take
// entries out of the middle of the heap and after arrivals pushed
// behind those cancellations.
func TestArrivalHeapMatchesLinearScan(t *testing.T) {
	const nodes, count = 32, 250
	cfg := Config{Cluster: newTestCluster(nodes), Policy: Backfill}
	s := New(cfg)
	jobs := SyntheticStream(9, count, nodes, 5*time.Second)
	submitAll(t, s, jobs)

	// The latest arrivals make the best cancellation targets: they stay
	// queued (and in the heap) longest.
	byArrive := append([]*Job(nil), jobs...)
	sort.Slice(byArrive, func(i, k int) bool { return byArrive[i].arrive > byArrive[k].arrive })
	toCancel := byArrive[:10]

	steps := 0
	for {
		at, ok := s.arrivals.next()
		refAt, refOK := nextArrival(s)
		if ok != refOK || (ok && at != refAt) {
			t.Fatalf("step %d (t=%v): arrival heap says (%v,%v), linear scan says (%v,%v)",
				steps, s.now, at, ok, refAt, refOK)
		}
		if steps == 5 {
			// Cancel still-queued future arrivals mid-run: their heap
			// entries leave from wherever they sit.
			for _, j := range toCancel {
				if j.State == Queued {
					if err := s.Cancel(j.ID); err != nil {
						t.Fatalf("cancel %s: %v", j, err)
					}
				}
			}
			// Then push arrivals earlier than every one still waiting:
			// they sift up through the heap the removals reshaped.
			for i := 1; i <= 20; i++ {
				soon := &Job{Name: "soon", Kind: KindCG, Nodes: 1, Est: time.Second, Submit: s.now + time.Duration(i)*time.Millisecond}
				if err := s.Submit(soon); err != nil {
					t.Fatalf("submit %s: %v", soon, err)
				}
			}
		}
		if !s.Step() {
			break
		}
		steps++
	}
	if steps < 100 {
		t.Fatalf("only %d event steps — the comparison barely ran", steps)
	}
}

// TestQueuedJobHasOneHome runs random operation sequences over every
// crossed configuration, with and without a fault plan — submits, half
// of them future-stamped; cancels of an arrived, a future and a running
// job; RunUntil to random instants; and resubmission of a canceled
// future job's spec with its Submit unchanged — and after every
// operation checks that each queued job lives in exactly one place
// (checkOneHome).
func TestQueuedJobHasOneHome(t *testing.T) {
	DebugVerifyShadows = true
	defer func() { DebugVerifyShadows = false }()

	const nodes, ops = 16, 300
	var tally [5]int // future submits; cancels of arrived, future, running jobs; resubmits
	for _, base := range propertyConfigs() {
		for _, faults := range []bool{false, true} {
			cfg := base
			if faults {
				cfg.Faults = GenFaultPlan(3, nodes, 4*time.Hour, 10*time.Minute)
				cfg.CheckpointInterval = 15 * time.Second
			}
			name := fmt.Sprintf("%v/preempt=%v/quantum=%v/host=%v/faults=%v", cfg.Policy, cfg.Preempt, cfg.Quantum, cfg.SuspendToHost, faults)
			t.Run(name, func(t *testing.T) {
				for seed := int64(1); seed <= 2; seed++ {
					rng := rand.New(rand.NewSource(seed))
					cfg.Cluster = newTestCluster(nodes)
					s := New(cfg)
					specs := SyntheticMix(seed, ops, nodes)
					var canceled []*Job // canceled while future arrivals, to resubmit
					for op := 0; op < ops; op++ {
						switch r := rng.Intn(10); {
						case r < 4 && len(specs) > 0:
							j := specs[0]
							specs = specs[1:]
							if rng.Intn(2) == 0 {
								j.Submit = s.now + time.Duration(1+rng.Intn(120))*time.Second
								tally[0]++
							}
							if err := s.Submit(j); err != nil {
								t.Fatalf("submit %s: %v", j, err)
							}
						case r < 7:
							kind := rng.Intn(3) // arrived, future, running
							var pool []*Job
							for _, j := range s.byID {
								arrived := j.State == Queued && j.qpos >= 0
								future := j.State == Queued && j.qpos < 0
								if []bool{arrived, future, j.State == Running}[kind] {
									pool = append(pool, j)
								}
							}
							if len(pool) == 0 {
								continue
							}
							sort.Slice(pool, func(i, k int) bool { return pool[i].ID < pool[k].ID })
							j := pool[rng.Intn(len(pool))]
							if err := s.Cancel(j.ID); err != nil {
								t.Fatalf("cancel %s: %v", j, err)
							}
							tally[1+kind]++
							if kind == 1 {
								canceled = append(canceled, j)
							}
						case r < 8 && len(canceled) > 0:
							j := canceled[len(canceled)-1]
							canceled = canceled[:len(canceled)-1]
							if err := s.Submit(j); err != nil {
								t.Fatalf("resubmit %s: %v", j, err)
							}
							tally[4]++
						default:
							s.RunUntil(s.now + time.Duration(rng.Intn(60))*time.Second)
						}
						checkOneHome(t, s)
					}
					s.RunUntil(Forever)
					checkOneHome(t, s)
					if n := s.queued(); n != 0 {
						t.Fatalf("seed %d: %d jobs still queued after the drain", seed, n)
					}
				}
			})
		}
	}
	for i, n := range tally {
		if n == 0 {
			t.Fatalf("operation %d of (future submit, cancel arrived, cancel future, cancel running, resubmit) never ran: %v", i, tally)
		}
	}
	t.Logf("future submits, cancels of arrived / future / running jobs, resubmits: %v", tally)
}

// checkOneHome checks where the scheduler keeps its queued jobs: each
// one is either in the queue, having arrived, or in exactly one
// arrival-heap entry, not yet arrived, whose index its qpos records; no
// job holds two queue slots; every qpos in the queue is at or before its
// job's slot; the heap holds nothing else, so its length counts the
// future arrivals; and a queue that owes no sort is in discipline order.
func checkOneHome(t *testing.T, s *Scheduler) {
	t.Helper()
	slot := make(map[*Job]int)
	var prev *Job
	for i, j := range s.pending.jobs {
		if j == nil {
			continue
		}
		if k, dup := slot[j]; dup {
			t.Fatalf("t=%v: job %d queued at slots %d and %d", s.now, j.ID, k, i)
		}
		slot[j] = i
		if j.qpos < 0 || j.qpos > i {
			t.Fatalf("t=%v: job %d at slot %d has qpos %d", s.now, j.ID, i, j.qpos)
		}
		if j.State != Queued || j.arrive > s.now {
			t.Fatalf("t=%v: job %d in the queue is %v, arriving at %v", s.now, j.ID, j.State, j.arrive)
		}
		if !s.pending.dirty && prev != nil && !s.less(prev, j) {
			t.Fatalf("t=%v: sorted queue holds job %d ahead of job %d", s.now, prev.ID, j.ID)
		}
		prev = j
	}
	entries := make(map[*Job]int)
	for i, a := range s.arrivals {
		j := a.job
		entries[j]++
		if j.State != Queued || j.arrive <= s.now || heapIndex(j.qpos) != i {
			t.Fatalf("t=%v: arrival-heap entry %d is job %d, %v, arriving at %v, qpos %d",
				s.now, i, j.ID, j.State, j.arrive, j.qpos)
		}
	}
	queued := 0
	for id, j := range s.byID {
		if j.ID != id || j.State != Queued {
			continue // terminal, running, or resubmitted under a new ID
		}
		queued++
		_, inQueue := slot[j]
		if n := entries[j]; inQueue == (n > 0) || n > 1 {
			t.Fatalf("t=%v: job %d in the queue %v and in %d arrival-heap entries", s.now, j.ID, inQueue, n)
		}
	}
	if n := len(slot) + len(s.arrivals); n != queued || n != s.queued() {
		t.Fatalf("t=%v: %d queued jobs, %d homes, queued() says %d", s.now, queued, n, s.queued())
	}
}

// BenchmarkSubmitFutureArrivals submits a million arrival-ordered
// SyntheticStream jobs to a 10,000-node scheduler — every one but the
// first a future arrival — and steps the clock (nextEvent, advance)
// through every arrival instant with nothing dispatched: the arrival
// index's push at submit, its peek per event step, and each arrival's
// admission into the queue.
func BenchmarkSubmitFutureArrivals(b *testing.B) {
	const count, nodes = 1_000_000, 10_000
	jobs := SyntheticStream(1, count, nodes, time.Second)
	instants := 0
	for i, j := range jobs {
		j.Est = time.Minute // resolved up front: the estimator is not measured here
		if i > 0 && j.Submit > jobs[i-1].Submit {
			instants++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(Config{Cluster: newTestCluster(nodes), Policy: Backfill})
		b.StartTimer()
		for _, j := range jobs {
			if err := s.Submit(j); err != nil {
				b.Fatal(err)
			}
		}
		steps := 0
		for t, ok := s.nextEvent(); ok; t, ok = s.nextEvent() {
			s.advance(t)
			steps++
		}
		if steps != instants {
			b.Fatalf("walked %d arrival instants, the stream has %d", steps, instants)
		}
	}
}

// BenchmarkDenseStream drains arrival streams much denser than their
// jobs' runtimes on a 64-node machine (SyntheticStream, 100 ms mean
// gap), so the queue is deep and most events are arrivals that enter it
// at their rank: 20,000 jobs under EASY at depth 512, 5,000 under
// fair-share, and 2,000 under conservative backfill, which also reports
// its profile searches. Estimates are resolved before the timer starts.
func BenchmarkDenseStream(b *testing.B) {
	const nodes, gap = 64, 100 * time.Millisecond
	for _, c := range []struct {
		cfg  Config
		jobs int
	}{
		{Config{Policy: Backfill, BackfillDepth: 512}, 20_000},
		{Config{Policy: FairShare, BackfillDepth: 512}, 5_000},
		{Config{Policy: Conservative}, 2_000},
	} {
		b.Run(fmt.Sprintf("%v/jobs=%d", c.cfg.Policy, c.jobs), func(b *testing.B) {
			jobs := SyntheticStream(1, c.jobs, nodes, gap)
			resolve := New(Config{Cluster: newTestCluster(nodes)})
			for _, j := range jobs {
				if err := resolve.Submit(j); err != nil {
					b.Fatal(err)
				}
				j.Est = j.Estimate()
			}
			searches := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := c.cfg
				cfg.Cluster = newTestCluster(nodes)
				s := New(cfg)
				for _, j := range jobs {
					if err := s.Submit(j); err != nil {
						b.Fatal(err)
					}
				}
				s.RunUntil(Forever)
				searches = s.searches
			}
			if c.cfg.Policy == Conservative {
				b.ReportMetric(float64(searches), "searches")
			}
		})
	}
}

// TestEndListOrderStatistics drives the running set through random add
// / keyed del / re-key / popMin traffic (popMin first asked an instant
// before the earliest event, which must pop nothing) and checks min,
// each, len and coverTime against a sorted copy of the model after every
// operation. Ends are drawn from 50 instants, so equal End broken by ID
// is the common case, not the corner; a re-key keeps its End one time in
// eight.
func TestEndListOrderStatistics(t *testing.T) {
	var l endList
	var ref []*Job // the model: the same jobs, order irrelevant
	rng := rand.New(rand.NewSource(7))
	drop := func(i int) {
		ref[i] = ref[len(ref)-1]
		ref = ref[:len(ref)-1]
	}

	check := func(op int) {
		t.Helper()
		sorted := append([]*Job(nil), ref...)
		sort.Slice(sorted, func(i, k int) bool {
			if sorted[i].End != sorted[k].End {
				return sorted[i].End < sorted[k].End
			}
			return sorted[i].ID < sorted[k].ID
		})
		// each must visit exactly the model's jobs ascending by (End, ID).
		i := 0
		l.each(func(j *Job) {
			if i >= len(sorted) || j != sorted[i] {
				t.Fatalf("op %d: each entry %d: got job %d ending %v, model has %d jobs", op, i, j.ID, j.End, len(sorted))
			}
			i++
		})
		if i != len(sorted) || l.len() != len(sorted) {
			t.Fatalf("op %d: each visited %d jobs, len() %d, model holds %d", op, i, l.len(), len(sorted))
		}
		switch m := l.min(); {
		case len(sorted) == 0 && m != nil:
			t.Fatalf("op %d: min of an empty list = job %d", op, m.ID)
		case len(sorted) > 0 && m != sorted[0]:
			t.Fatalf("op %d: min = %v, model's earliest is job %d ending %v", op, m, sorted[0].ID, sorted[0].End)
		}
		// coverTime(d) must be the earliest instant where the prefix sum
		// of the node counts each() yields, in its order, reaches d.
		total := 0
		for _, j := range sorted {
			total += j.Alloc.Count
		}
		for _, d := range []int{1, 2, 5, total, total + 1} {
			if d <= 0 {
				continue
			}
			wantAt, wantOK := time.Duration(0), false
			sum := 0
			for _, j := range sorted {
				sum += j.Alloc.Count
				if sum >= d {
					wantAt, wantOK = j.End, true
					break
				}
			}
			gotAt, gotOK := l.coverTime(d)
			if gotOK != wantOK || (gotOK && gotAt != wantAt) {
				t.Fatalf("op %d: coverTime(%d): got (%v,%v), want (%v,%v)", op, d, gotAt, gotOK, wantAt, wantOK)
			}
		}
	}

	nextID := 0
	for op := 0; op < 3000; op++ {
		switch r := rng.Intn(8); {
		case len(ref) == 0 || r < 4: // dispatch
			j := &Job{ID: nextID, End: time.Duration(rng.Intn(50)) * time.Second}
			j.Alloc.Count = 1 + rng.Intn(64)
			nextID++
			l.add(j)
			ref = append(ref, j)
		case r < 5: // cancel or fault: keyed delete of any entry
			i := rng.Intn(len(ref))
			l.del(ref[i].End, ref[i].ID)
			drop(i)
		case r < 6: // checkpoint drain: del under the old End, add under the new
			j := ref[rng.Intn(len(ref))]
			l.del(j.End, j.ID)
			if rng.Intn(8) != 0 { // else a re-key to the same End
				j.End = time.Duration(rng.Intn(50)) * time.Second
			}
			l.add(j)
		default: // the event loop: pop the earliest once it is due
			want := l.min()
			if got := l.popMin(want.End - 1); got != nil {
				t.Fatalf("op %d: popMin before %v returned job %d", op, want.End, got.ID)
			}
			if got := l.popMin(want.End); got != want {
				t.Fatalf("op %d: popMin returned %v, min was %v", op, got, want)
			}
			for i, j := range ref {
				if j == want {
					drop(i)
					break
				}
			}
		}
		check(op)
	}
	for l.popMin(Forever) != nil {
	}
	if l.len() != 0 || l.min() != nil {
		t.Fatalf("drained list: len %d, min %v", l.len(), l.min())
	}
	// A miss is a scheduler bug and must not pass silently: an absent
	// key, and an End that is present under a different ID.
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("del of %s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("an absent key", func() { l.del(time.Second, 1) })
	j := &Job{ID: 5, End: time.Second}
	j.Alloc.Count = 1
	l.add(j)
	mustPanic("an End present under another ID", func() { l.del(time.Second, 4) })
	mustPanic("an End present under another ID", func() { l.del(time.Second, 6) })
}

// TestBackfillDepth pins the depth limit's contract: a depth at least
// as deep as the queue reproduces the unlimited schedule bit for bit
// (the limit only prunes scan effort, never reorders the examined
// prefix), and even a tiny depth still drains every job.
func TestBackfillDepth(t *testing.T) {
	const nodes, count = 32, 300
	run := func(depth int) Report {
		cfg := Config{Cluster: newTestCluster(nodes), Policy: Backfill, BackfillDepth: depth}
		s := New(cfg)
		submitAll(t, s, SyntheticStream(3, count, nodes, 2*time.Second))
		return s.Run()
	}
	unlimited, deep := run(0), run(count*2)
	if unlimited.Makespan != deep.Makespan || unlimited.AvgWait != deep.AvgWait {
		t.Fatalf("depth %d diverged from unlimited: makespan %v vs %v, wait %v vs %v",
			count*2, deep.Makespan, unlimited.Makespan, deep.AvgWait, unlimited.AvgWait)
	}
	byID := make(map[int]*Job, count)
	for _, j := range deep.Jobs {
		byID[j.ID] = j
	}
	for _, j := range unlimited.Jobs {
		k := byID[j.ID]
		if k == nil || j.Start != k.Start || j.End != k.End {
			t.Fatalf("job %d: unlimited ran [%v,%v), deep depth ran [%v,%v)", j.ID, j.Start, j.End, k.Start, k.End)
		}
	}
	shallow := run(2)
	if len(shallow.Jobs) != count || shallow.Failed != 0 {
		t.Fatalf("depth 2 drained %d of %d jobs (%d failed)", len(shallow.Jobs), count, shallow.Failed)
	}
	for _, j := range shallow.Jobs {
		if j.State != Done {
			t.Fatalf("depth 2: %s ended %v", j, j.State)
		}
	}
}

// keyOf returns user u's epoch-normalized sort key (0 for a user never
// seen), the value the queue comparator reads off Job.acct.
func (s *Scheduler) keyOf(u string) float64 {
	if a := s.usage[u]; a != nil {
		return a.key
	}
	return 0
}

// TestFairShareKeyOrder pins the epoch-normalized fair-share keys to
// the live decayed-usage values they stand in for: after arbitrary
// charge traffic — including clock jumps far past the renormalization
// threshold — the pairwise order of keyOf must match the pairwise order
// of usageOf for every user pair that is not a floating-point near-tie.
func TestFairShareKeyOrder(t *testing.T) {
	cfg := Config{Cluster: newTestCluster(8), Policy: FairShare, FairShareHalfLife: time.Minute}
	s := New(cfg)
	users := []string{"ada", "bob", "cho", "dee", "eva"}
	rng := rand.New(rand.NewSource(11))

	check := func() {
		t.Helper()
		for i := 0; i < len(users); i++ {
			for k := i + 1; k < len(users); k++ {
				u, v := users[i], users[k]
				lu, lv := s.usageOf(u), s.usageOf(v)
				// Skip floating-point near-ties: the key and the live value
				// round differently at the ulp level, and the tie-break legs
				// of the comparator absorb exact ties either way.
				if d := lu - lv; d < 1e-9*(lu+lv+1) && d > -1e-9*(lu+lv+1) {
					continue
				}
				ku, kv := s.keyOf(u), s.keyOf(v)
				if (lu < lv) != (ku < kv) {
					t.Fatalf("at %v: live usage orders (%s=%g, %s=%g) but keys order (%g, %g)",
						s.now, u, lu, v, lv, ku, kv)
				}
			}
		}
	}

	for step := 0; step < 400; step++ {
		// Mostly small clock advances; occasionally a jump far past the
		// 64-half-life renormalization threshold.
		if rng.Intn(40) == 0 {
			s.now += time.Duration(70+rng.Intn(30)) * time.Minute
		} else {
			s.now += time.Duration(1+rng.Intn(5000)) * time.Millisecond
		}
		u := users[rng.Intn(len(users))]
		s.chargeUsage(u, time.Duration(1+rng.Intn(600))*time.Second)
		check()
	}
	if s.fsEpoch == 0 {
		t.Fatal("renormalization never fired — the jump traffic must cross 64 half-lives")
	}
}

// TestQueueTombstones exercises the tombstoned pending queue directly:
// removal is by slot, ordering skips nils, compaction preserves the
// stable order, and insertion keeps a sorted queue sorted. After every
// push, remove, insert and ordered(), each block summary the queue
// keeps equals a recount of its slots, and each job in such a block has
// its exact slot as qpos; after ordered() no block is stale.
func TestQueueTombstones(t *testing.T) {
	var q queue
	rng := rand.New(rand.NewSource(3))
	mk := func(id int) *Job {
		return &Job{ID: id, Nodes: 1 + rng.Intn(64), jobState: jobState{qpos: -1,
			est: time.Duration(1+rng.Intn(900)) * time.Second, doneWork: time.Duration(rng.Intn(600)) * time.Second}}
	}
	less := func(a, b *Job) bool { return a.ID < b.ID }
	check := func(op string, n int, ordered bool) {
		t.Helper()
		if ordered && len(q.blocks)*scanBlock < len(q.jobs) {
			t.Fatalf("after %s %d: %d block summaries for %d slots", op, n, len(q.blocks), len(q.jobs))
		}
		for b, got := range q.blocks {
			want := qblock{minNodes: math.MaxInt, minLeft: math.MaxInt64}
			for i := b * scanBlock; i < len(q.jobs) && i < (b+1)*scanBlock; i++ {
				j := q.jobs[i]
				if j == nil {
					continue
				}
				if j.qpos != i {
					t.Fatalf("after %s %d: job %d in summarized slot %d has qpos %d", op, n, j.ID, i, j.qpos)
				}
				want.live++
				want.minNodes = min(want.minNodes, j.Nodes)
				want.minLeft = min(want.minLeft, max(j.est-j.doneWork, time.Millisecond))
			}
			if got != want {
				t.Fatalf("after %s %d: block %d summary %+v, recount %+v", op, n, b, got, want)
			}
		}
	}
	var ref []*Job
	for id := 0; id < 500; id++ {
		j := mk(id * 1000)
		q.push(j)
		check("push", id, false)
		ref = append(ref, j)
		if rng.Intn(3) == 0 && len(ref) > 0 {
			i := rng.Intn(len(ref))
			q.remove(ref[i])
			check("remove", id, false)
			ref = append(ref[:i], ref[i+1:]...)
		}
		if q.len() != len(ref) {
			t.Fatalf("queue len %d, reference %d", q.len(), len(ref))
		}
		if id%40 == 0 {
			q.ordered(less)
			check("ordered", id, true)
		}
	}
	want := append([]*Job(nil), ref...)
	sort.SliceStable(want, func(i, k int) bool { return less(want[i], want[k]) })
	var got []*Job
	for _, j := range q.ordered(less) {
		if j != nil {
			got = append(got, j)
		}
	}
	check("ordered", 500, true)
	if len(got) != len(want) {
		t.Fatalf("ordered yields %d live jobs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ordered[%d] = job %d, want job %d", i, got[i].ID, want[i].ID)
		}
	}
	// Insertion into the sorted queue, between removals and orderings:
	// the live slots stay in order, every qpos stays at or before its
	// job's slot, and a removal still finds its job.
	ref = want
	seen := make(map[int]bool)
	for n := 0; n < 400; n++ {
		id := rng.Intn(500_000) // ranks anywhere among the IDs 0, 1000, 2000, ... pushed above
		if id%1000 == 0 || seen[id] {
			continue
		}
		seen[id] = true
		j := mk(id)
		q.insert(j, less)
		check("insert", n, false)
		ref = append(ref, j)
		if rng.Intn(2) == 0 {
			i := rng.Intn(len(ref))
			q.remove(ref[i])
			check("remove", n, false)
			ref = append(ref[:i], ref[i+1:]...)
		}
		if rng.Intn(4) == 0 {
			q.ordered(less)
			check("ordered", n, true)
		}
		var prev *Job
		for slot, p := range q.jobs {
			if p == nil {
				continue
			}
			if prev != nil && !less(prev, p) {
				t.Fatalf("after insert %d: job %d ahead of job %d", n, prev.ID, p.ID)
			}
			if p.qpos > slot {
				t.Fatalf("after insert %d: job %d qpos %d past its slot %d", n, p.ID, p.qpos, slot)
			}
			prev = p
		}
	}
	if q.len() != len(ref) {
		t.Fatalf("queue len %d after insertions, reference %d", q.len(), len(ref))
	}
	// Remove-by-stale-pointer must be a no-op, not a wrong eviction.
	gone := mk(9999)
	q.remove(gone)
	if q.len() != len(ref) {
		t.Fatal("removing an absent job changed the queue length")
	}
}

// TestBackfillBlockSkipBoundaries pins the two edges of the block skip
// in passOnce, on 8 nodes: a 6-node hog runs until 100 s (slot 0), the
// 8-node head blocks behind it (slot 1), 14 three-node gangs close the
// head's block and 16 fill the next, which the skip jumps. The next
// block opens with "fit", one node whose estimate ends exactly at the
// head's reservation, among more wide gangs. With no recorder, fit is
// backfilled unless BackfillDepth runs out first, and every depth —
// some ending inside the jumped block — starts the jobs the per-job walk
// of a recorded run starts.
func TestBackfillBlockSkipBoundaries(t *testing.T) {
	const sec = time.Second
	run := func(depth int, rec Recorder) (started []string) {
		s := New(Config{Cluster: newTestCluster(8), Policy: Backfill, BackfillDepth: depth, Recorder: rec})
		jobs := []*Job{ruleJob("hog", 6, 0, 100*sec, 0), ruleJob("head", 8, 0, sec, 0)}
		for i := 0; i < 46; i++ {
			name, nodes := fmt.Sprint("wide", i), 3
			if i == 30 {
				name, nodes = "fit", 1
			}
			jobs = append(jobs, ruleJob(name, nodes, 0, 200*sec, 0))
		}
		jobs[32].Est = 100 * sec
		submitAll(t, s, jobs)
		if jobs[32].qpos != 32 {
			t.Fatalf("fit waits at slot %d, want 32: the queue layout moved", jobs[32].qpos)
		}
		s.schedulePass()
		for _, j := range jobs {
			if j.State == Running {
				started = append(started, j.Name)
			}
		}
		return started
	}
	for _, c := range []struct {
		depth int
		fit   bool
	}{{0, true}, {20, false}, {30, false}, {31, true}, {44, true}} {
		bare, recorded := run(c.depth, nil), run(c.depth, &MemRecorder{})
		if !slices.Equal(bare, recorded) {
			t.Errorf("depth %d: started %v bare, %v with a recorder", c.depth, bare, recorded)
		}
		want := []string{"hog"}
		if c.fit {
			want = append(want, "fit")
		}
		if !slices.Equal(bare, want) {
			t.Errorf("depth %d: started %v, want %v", c.depth, bare, want)
		}
	}
}
