package batch

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gpucluster/internal/netsim"
	"gpucluster/internal/sched"
)

// NodeSpec describes one cluster node. The defaults mirror the paper's
// Stony Brook machine: one GeForce FX 5800 Ultra per node, 2.5 GB of
// host memory.
type NodeSpec struct {
	// GPUs is the accelerator count.
	GPUs int
	// MemBytes is the host memory available to a job's per-node block.
	MemBytes int64
	// Group is the interconnect group derived from the switch topology:
	// 0 for ports on the primary non-blocking switch, 1 for ports
	// reached through the stacking trunk (netsim.Config.NonBlockingPorts).
	Group int
}

// NodeRange is one contiguous run of node indices, [First, First+Count).
type NodeRange struct {
	First, Count int
}

// NodeRanges is a node set as its runs, disjoint and ascending: a gang
// (Allocation.Ranges) or the nodes an event concerns (Event.Alloc).
type NodeRanges []NodeRange

// Nodes returns the node indices in rank order.
func (rs NodeRanges) Nodes() []int {
	var out []int
	for _, r := range rs {
		for i := 0; i < r.Count; i++ {
			out = append(out, r.First+i)
		}
	}
	return out
}

// Allocation is a gang of nodes granted to one job: one contiguous
// range in the common case — contiguity keeps a job's ranks on
// neighboring switch ports, the placement the paper's pairwise schedule
// assumes — or several disjoint ranges when the topology-aware engine
// assembles a gang from free fragments.
type Allocation struct {
	// Ranges are the granted node runs, disjoint and ascending. Rank r
	// runs on the r-th node of the concatenation (see Port).
	Ranges NodeRanges
	// Count is the total node count across Ranges.
	Count int
	// CrossesTrunk reports whether the node set spans both interconnect
	// groups, so the job's border exchanges pay the stacking-trunk
	// bandwidth of Section 4.3.
	CrossesTrunk bool
}

// Grid is the gang's most cubic 3D arrangement for the workload's
// domain decomposition (sched.Arrange3D), zero for an empty allocation.
func (a Allocation) Grid() sched.NodeGrid {
	if a.Count == 0 {
		return sched.NodeGrid{}
	}
	return sched.Arrange3D(a.Count)
}

// Contiguous reports whether the gang occupies a single node range.
func (a Allocation) Contiguous() bool { return len(a.Ranges) == 1 }

// Port returns the switch port (node index) rank r is placed on: ranks
// walk the ranges in ascending node order, so for a contiguous gang
// port = First + r.
func (a Allocation) Port(r int) int {
	for _, nr := range a.Ranges {
		if r < nr.Count {
			return nr.First + r
		}
		r -= nr.Count
	}
	panic(fmt.Sprintf("batch: rank %d outside %d-node allocation", r, a.Count))
}

func (a Allocation) String() string {
	var b strings.Builder
	for i, r := range a.Ranges {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "[%d,%d)", r.First, r.First+r.Count)
	}
	return fmt.Sprintf("nodes %s as %v", b.String(), a.Grid())
}

// Cluster is the resource manager's machine state: nodes on the
// simulated switch, the free-range index (index.go) as the one record
// of which nodes are allocated, and busy time for the utilization
// report. Both are kept per range: placement probes enumerate the
// index's free runs, so they cost O(free runs) instead of O(nodes); a
// what-if probe frees nodes in the live index and undoes it (probeFree,
// probeUndo).
type Cluster struct {
	nodes []NodeSpec
	net   netsim.Config
	// busy is a difference array over node indices, n+1 entries: node
	// i's busy time is the sum of busy[:i+1] (BusyTimes).
	busy []time.Duration
	// reserved holds per-node host memory pinned by suspended-to-host
	// checkpoint images (see suspend.go): the node may be free for
	// placement, but only jobs fitting the remaining memory land on it.
	reserved []int64
	// fragSamples/fragSum sample the free-fragment count at each
	// allocation instant, the report's fragmentation statistic.
	fragSamples, fragSum int
	// down flags nodes taken out by an injected fault (fault.go). A
	// down node is also allocated in the free-range index — so
	// placement and shadows exclude it exactly like a gang's node — and
	// flagged here so a crashed node is distinguishable from a busy one.
	down      []bool
	downCount int
	// trunkDown marks an injected whole-trunk outage: while it holds, no
	// placement may cross the trunk (eligible runs clip at the boundary
	// and crossing assemblies are refused, see placement.go).
	trunkDown bool

	// idx is the ordered free-range set, split on commit and merged on
	// Release — candidate enumeration, the free count and the O(1)
	// fragment count.
	idx freeIndex
	// probeLog holds the ranges a what-if probe has freed, for
	// probeUndo to re-allocate; reused, so probes allocate nothing.
	probeLog []NodeRange
	// constrained flags nodes the uniform fast paths must inspect
	// individually: a spec diverging from the construction default, or
	// a suspend-to-host reservation pinning memory. When the set is
	// empty, every free node is eligible for every admitted job and the
	// count-based shadow in sched.go is exact.
	constrained  bitset
	nConstrained int
	baseMem      int64
	// memSorted caches the per-node memory specs ascending for the
	// NodesWithMem admission count; SetSpec invalidates it.
	memSorted []int64
	memDirty  bool
	// runBuf and candBuf are scratch for eligibleRuns/candidates, and
	// asmArena (the assemblies' ranges), asmSort and asmOut for
	// assemblies, so steady-state placement probes allocate nothing.
	runBuf   []NodeRange
	candBuf  []candidate
	asmArena []NodeRange
	asmSort  []NodeRange
	asmOut   [][]NodeRange
}

// NewCluster builds an n-node cluster attached to the given switch
// configuration; node interconnect groups follow net.NonBlockingPorts.
func NewCluster(n int, net netsim.Config) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("batch: invalid cluster size %d", n))
	}
	c := &Cluster{
		nodes:    make([]NodeSpec, n),
		net:      net,
		busy:     make([]time.Duration, n+1),
		down:     make([]bool, n),
		reserved: make([]int64, n),
		baseMem:  2560 << 20,
		memDirty: true,
	}
	for i := range c.nodes {
		group := 0
		if net.NonBlockingPorts > 0 && i >= net.NonBlockingPorts {
			group = 1
		}
		c.nodes[i] = NodeSpec{GPUs: 1, MemBytes: c.baseMem, Group: group}
	}
	c.idx.init(n)
	c.constrained.init(n)
	return c
}

// refreshConstrained recomputes node i's membership in the constrained
// set: divergent memory spec, or a live suspend-to-host reservation.
func (c *Cluster) refreshConstrained(i int) {
	if c.nodes[i].MemBytes != c.baseMem || c.reserved[i] != 0 {
		if !c.constrained.has(i) {
			c.constrained.set(i)
			c.nConstrained++
		}
		return
	}
	if c.constrained.has(i) {
		c.constrained.clear(i)
		c.nConstrained--
	}
}

// Size returns the node count.
func (c *Cluster) Size() int { return len(c.nodes) }

// Spec returns node i's description.
func (c *Cluster) Spec(i int) NodeSpec { return c.nodes[i] }

// SetSpec overrides node i's description, e.g. to model a heterogeneous
// machine where some nodes carry less memory. The admission check and
// the placement engine consult per-node specs, not a cluster-wide one.
func (c *Cluster) SetSpec(i int, s NodeSpec) {
	c.nodes[i] = s
	c.memDirty = true
	c.refreshConstrained(i)
}

// Net returns the interconnect configuration.
func (c *Cluster) Net() netsim.Config { return c.net }

// FreeNodes returns how many nodes are currently unallocated.
func (c *Cluster) FreeNodes() int { return c.idx.free }

// NodesWithMem counts nodes (busy or not) offering at least need bytes,
// the admission-feasibility bound checked at submit. Deliberately
// spec-based: transient suspend-to-host reservations must not bounce a
// submission the machine can serve once images demote or resume. The
// count is a binary search over a cached sorted spec list, so the
// per-Submit cost is O(log nodes).
func (c *Cluster) NodesWithMem(need int64) int {
	if c.memDirty {
		c.memSorted = c.memSorted[:0]
		for _, s := range c.nodes {
			c.memSorted = append(c.memSorted, s.MemBytes)
		}
		sort.Slice(c.memSorted, func(i, k int) bool { return c.memSorted[i] < c.memSorted[k] })
		c.memDirty = false
	}
	i := sort.Search(len(c.memSorted), func(i int) bool { return c.memSorted[i] >= need })
	return len(c.memSorted) - i
}

// avail returns node i's memory available to a new placement: its spec
// minus whatever suspended checkpoint images currently pin.
func (c *Cluster) avail(i int) int64 { return c.nodes[i].MemBytes - c.reserved[i] }

// NodesWithAvail counts nodes (busy or not) whose *available* memory —
// spec minus resident suspended images — covers need: the capacity
// bound reservation planning uses, where NodesWithMem's spec-based
// count would promise slots that pinned images cannot honor. Only the
// constrained set is inspected individually: a node with the default
// spec and no reservation always offers exactly baseMem.
func (c *Cluster) NodesWithAvail(need int64) int {
	n := c.NodesWithMem(need)
	if c.nConstrained == 0 {
		return n
	}
	for i := c.constrained.nextSet(0); i >= 0; i = c.constrained.nextSet(i + 1) {
		if c.nodes[i].MemBytes >= need && c.avail(i) < need {
			n--
		}
	}
	return n
}

// reserve pins bytes of host memory on every node of a — a suspended
// job's checkpoint image staying resident in RAM.
func (c *Cluster) reserve(a Allocation, bytes int64) {
	for _, r := range a.Ranges {
		for i := r.First; i < r.First+r.Count; i++ {
			c.reserved[i] += bytes
			c.refreshConstrained(i)
		}
	}
}

// unreserve releases a reservation made with reserve.
func (c *Cluster) unreserve(a Allocation, bytes int64) {
	for _, r := range a.Ranges {
		for i := r.First; i < r.First+r.Count; i++ {
			c.reserved[i] -= bytes
			if c.reserved[i] < 0 {
				panic(fmt.Sprintf("batch: negative memory reservation on node %d", i))
			}
			c.refreshConstrained(i)
		}
	}
}

// freeAndFits reports whether every node of a is currently unallocated
// and offers at least need bytes — the home-resume eligibility check for
// a suspended-to-host job returning to the nodes holding its image.
func (c *Cluster) freeAndFits(a Allocation, need int64) bool {
	for _, r := range a.Ranges {
		if !c.idx.isFree(r.First, r.Count) {
			return false
		}
		for i := r.First; i < r.First+r.Count; i++ {
			if c.avail(i) < need {
				return false
			}
		}
	}
	return true
}

// rangesCrossTrunk reports whether a node set (disjoint ascending
// ranges) spans both sides of the stacking trunk.
func (c *Cluster) rangesCrossTrunk(rs []NodeRange) bool {
	nb := c.net.NonBlockingPorts
	if nb <= 0 || nb >= len(c.nodes) || len(rs) == 0 {
		return false
	}
	last := rs[len(rs)-1]
	return rs[0].First < nb && last.First+last.Count > nb
}

// commit allocates a candidate's nodes and builds its Allocation; an
// already allocated node panics (freeIndex.alloc). The candidate's
// ranges (or its inline single window) are copied into the Allocation,
// never aliased — candidates reuse the cluster's scratch buffers and
// the home-resume path passes a live Allocation's slice.
func (c *Cluster) commit(cand candidate) Allocation {
	var rs []NodeRange
	if cand.single.Count > 0 {
		rs = []NodeRange{cand.single}
	} else {
		rs = append([]NodeRange(nil), cand.ranges...)
	}
	total := 0
	for _, r := range rs {
		c.idx.alloc(r.First, r.Count)
		total += r.Count
	}
	c.fragSamples++
	c.fragSum += c.idx.runs
	return Allocation{Ranges: rs, Count: total, CrossesTrunk: cand.crosses}
}

// Release frees an allocation and credits its nodes with the job's
// runtime of busy time; a node already free panics (freeIndex.release).
func (c *Cluster) Release(a Allocation, ran time.Duration) {
	for _, r := range a.Ranges {
		c.idx.release(r.First, r.Count)
	}
	c.creditBusy(a, ran)
}

// nodeDown takes node i out of service for an injected fault. The node
// must be unallocated — the fault layer kills resident gangs first —
// and is then allocated in the free-range index, so every consumer
// (placement candidates, canPlace probes, shadows) excludes it exactly
// as if a one-node gang were committed: down/up split and merge free
// runs like alloc/release. Busy accounting is not credited for down
// time — a dead node is not doing work.
func (c *Cluster) nodeDown(i int) {
	if c.down[i] {
		panic(fmt.Sprintf("batch: node %d already down", i))
	}
	if !c.idx.isFree(i, 1) {
		panic(fmt.Sprintf("batch: node %d still allocated at nodeDown", i))
	}
	c.down[i] = true
	c.downCount++
	c.idx.alloc(i, 1)
}

// nodeUp returns a repaired node to service, merging it back into the
// free-range index exactly like a release, with no busy credit.
func (c *Cluster) nodeUp(i int) {
	if !c.down[i] {
		panic(fmt.Sprintf("batch: node %d not down at nodeUp", i))
	}
	c.down[i] = false
	c.downCount--
	c.idx.release(i, 1)
}

// creditBusy credits each node of a with ran of busy time without
// freeing anything — a proactive checkpoint closes an accounting
// segment while the gang stays seated on its nodes. Each range adds ran
// at its first node and takes it off one past its last, so a credit
// costs O(ranges), not O(gang nodes).
func (c *Cluster) creditBusy(a Allocation, ran time.Duration) {
	for _, r := range a.Ranges {
		c.busy[r.First] += ran
		c.busy[r.First+r.Count] -= ran
	}
}

// probeFree frees rs in the live index for a what-if probe and logs
// them; probeUndo(mark) re-allocates every range logged since mark, the
// log length the probe began at. The index is canonical, so the undo
// restores it exactly. Nothing between a probeFree and its probeUndo
// may commit or release: a gang placed on a probe-freed node would be
// double-booked, and the undo would panic re-allocating it.
func (c *Cluster) probeFree(rs ...NodeRange) {
	for _, r := range rs {
		c.idx.release(r.First, r.Count)
		c.probeLog = append(c.probeLog, r)
	}
}

// probeUndo re-allocates the ranges probeFree logged since mark.
func (c *Cluster) probeUndo(mark int) {
	for _, r := range c.probeLog[mark:] {
		c.idx.alloc(r.First, r.Count)
	}
	c.probeLog = c.probeLog[:mark]
}

// BusyTimes returns each node's accumulated busy time, the prefix sums
// of the difference array creditBusy writes.
func (c *Cluster) BusyTimes() []time.Duration {
	out := make([]time.Duration, len(c.nodes))
	var sum time.Duration
	for i := range out {
		sum += c.busy[i]
		out[i] = sum
	}
	return out
}

// AvgFreeFrags returns the mean number of free fragments observed at
// allocation instants — how shattered the machine was when gangs were
// placed. Zero before any allocation.
func (c *Cluster) AvgFreeFrags() float64 {
	if c.fragSamples == 0 {
		return 0
	}
	return float64(c.fragSum) / float64(c.fragSamples)
}
