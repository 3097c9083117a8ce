package batch

import (
	"cmp"
	"slices"

	"gpucluster/internal/sched"
)

// Gang placement: how the scheduler picks which nodes a job's gang lands
// on. The paper's Section 4.3 shows the choice is not cosmetic — a gang
// whose ports straddle the stacking trunk pays the trunk's bandwidth on
// every border exchange. The engine is topology-aware: enumerate every
// candidate node set — all distinct contiguous windows, and
// non-contiguous assemblies from free fragments when no window is wide
// enough — score each by trunk crossing, fragmentation left behind, and
// alignment with the Arrange3D grid, and take the best admissible one.
// (It replaced a take-it-or-leave-it first contiguous window, which
// denied a backfill candidate whose only offered window crossed the
// trunk even though another would have been admissible.)

// candidate is one potential gang placement, scored but not committed.
// Contiguous windows — the overwhelmingly common case — are carried in
// single (Count > 0) so candidate enumeration allocates no per-candidate
// range slice; ranges is only populated for multi-range assemblies and
// the suspend-to-host home-resume path.
type candidate struct {
	single  NodeRange
	ranges  []NodeRange
	crosses bool
	score   float64
}

// Score weights. Trunk crossing dominates (it stretches the whole
// runtime), splitting a gang across fragments is next (ragged neighbor
// maps, more switch hops), then the fragmentation the placement leaves
// behind, then decomposition-grid alignment; the final term is a
// deterministic left-packing tie-break.
const (
	scoreTrunkCross = 1000
	scoreExtraRange = 120
	scoreLeftover   = 15
	scoreBrokenRow  = 4
	scoreTieBreak   = 0.01
)

// candidates returns placement candidates for a k-node gang whose every
// node offers at least need bytes of memory, best score first: every
// distinct contiguous window worth considering and, when no free run is
// wide enough, non-contiguous assemblies built from the free fragments,
// so a caller with extra constraints (the backfill shadow) can fall
// through to the next-best placement instead of failing outright.
func (c *Cluster) candidates(k int, need int64) []candidate {
	if k <= 0 || k > len(c.nodes) {
		return nil
	}
	runs := c.eligibleRuns(need)
	cands := c.candBuf[:0]
	allCross := true
	for _, r := range runs {
		if r.Count < k {
			continue
		}
		starts, n := c.windowStarts(r, k)
		for _, first := range starts[:n] {
			cand := c.scoredWindow(runs, r, first, k)
			allCross = allCross && cand.crosses
			cands = append(cands, cand)
		}
	}
	// Fragment assemblies matter in two cases: no window is wide
	// enough, or every window straddles the trunk — a non-crossing
	// split gang beats a crossing contiguous one (and may be the only
	// placement whose stretched runtime honors a backfill shadow).
	if len(cands) == 0 || allCross {
		px := sched.Arrange3D(k).PX
		for _, rs := range c.assemblies(runs, k) {
			cand := c.scored(runs, rs, px)
			if c.trunkDown && cand.crosses {
				continue // severed trunk: crossing assemblies are unplaceable
			}
			cands = append(cands, cand)
		}
	}
	// Nearly always under ten candidates (a hundred at the outside on a
	// shattered 10,000-node machine): a stable insertion sort in place,
	// where sort.SliceStable's reflect swapper allocates on every start.
	for i := 1; i < len(cands); i++ {
		for k := i; k > 0 && cands[k].score < cands[k-1].score; k-- {
			cands[k], cands[k-1] = cands[k-1], cands[k]
		}
	}
	c.candBuf = cands
	return cands
}

// trunkBound returns the node index placements may not span while a
// trunk outage holds, or len(nodes) (spanned by nothing) otherwise.
func (c *Cluster) trunkBound() int {
	if c.trunkDown {
		if nb := c.net.NonBlockingPorts; nb > 0 && nb < len(c.nodes) {
			return nb
		}
	}
	return len(c.nodes)
}

// eligibleRuns returns the maximal runs of free nodes with at least
// need bytes of available memory, ascending. Runs come from the free
// index and are refined against the constrained-node set, so the cost
// is O(free runs + constrained nodes), independent of cluster size. The
// returned slice aliases c.runBuf and is valid until the next call.
func (c *Cluster) eligibleRuns(need int64) []NodeRange {
	c.runBuf = c.runBuf[:0]
	for f := c.idx.starts.nextSet(0); f >= 0; {
		cnt := int(c.idx.runLen[f])
		c.appendEligible(f, cnt, need)
		f = c.idx.starts.nextSet(f + cnt)
	}
	// A severed trunk splits the (at most one) run straddling the
	// boundary, so no contiguous window can cross while the outage holds.
	if bound := c.trunkBound(); bound < len(c.nodes) {
		for i, r := range c.runBuf {
			if r.First < bound && r.First+r.Count > bound {
				c.runBuf = append(c.runBuf, NodeRange{})
				copy(c.runBuf[i+2:], c.runBuf[i+1:])
				c.runBuf[i] = NodeRange{First: r.First, Count: bound - r.First}
				c.runBuf[i+1] = NodeRange{First: bound, Count: r.First + r.Count - bound}
				break
			}
		}
	}
	return c.runBuf
}

// appendEligible splits the free run [f, f+cnt) into its eligible
// sub-runs for a per-node need and appends them to c.runBuf. Default
// nodes offer exactly baseMem, so only constrained nodes (divergent
// spec or suspend-to-host reservation) are inspected individually.
func (c *Cluster) appendEligible(f, cnt int, need int64) {
	end := f + cnt
	if need <= c.baseMem {
		if c.nConstrained == 0 {
			c.runBuf = append(c.runBuf, NodeRange{First: f, Count: cnt})
			return
		}
		// Constrained nodes that still cover need stay in the run; the
		// rest break it.
		start := f
		for i := c.constrained.nextSet(f); i >= 0 && i < end; i = c.constrained.nextSet(i + 1) {
			if c.avail(i) >= need {
				continue
			}
			if i > start {
				c.runBuf = append(c.runBuf, NodeRange{First: start, Count: i - start})
			}
			start = i + 1
		}
		if end > start {
			c.runBuf = append(c.runBuf, NodeRange{First: start, Count: end - start})
		}
		return
	}
	// need exceeds the default spec: only over-provisioned nodes — all
	// of them constrained by definition — can host, so eligible runs
	// are maximal stretches of adjacent qualifying constrained nodes.
	start, prev := -1, -2
	for i := c.constrained.nextSet(f); i >= 0 && i < end; i = c.constrained.nextSet(i + 1) {
		if c.avail(i) < need {
			continue
		}
		if i != prev+1 {
			if start >= 0 {
				c.runBuf = append(c.runBuf, NodeRange{First: start, Count: prev - start + 1})
			}
			start = i
		}
		prev = i
	}
	if start >= 0 {
		c.runBuf = append(c.runBuf, NodeRange{First: start, Count: prev - start + 1})
	}
}

// windowStarts returns the distinct k-wide window positions worth
// scoring inside one free run: the run's edges (exact packing) and the
// trunk-boundary-aligned positions (a window ending exactly at the
// non-blocking port count, or starting exactly on the trunk side) when
// the boundary cuts through the run. Any non-crossing window that
// exists in the run is dominated by one of these. At most four
// positions exist, so the set is returned in a fixed array to keep
// candidate enumeration allocation-free.
func (c *Cluster) windowStarts(r NodeRange, k int) (starts [4]int, n int) {
	end := r.First + r.Count
	starts[0] = r.First
	n = 1
	if s := end - k; s != r.First {
		starts[n] = s
		n++
	}
	if nb := c.net.NonBlockingPorts; nb > r.First && nb < end {
		if s := nb - k; s >= r.First && !containsInt(starts[:n], s) {
			starts[n] = s
			n++
		}
		if nb+k <= end && !containsInt(starts[:n], nb) {
			starts[n] = nb
			n++
		}
	}
	return starts, n
}

// containsInt reports whether v occurs in xs.
func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// assemblies builds non-contiguous node sets of k nodes from the free
// fragments, used only when no single run is wide enough. Three
// deterministic strategies are scored: pack-left (always succeeds when
// enough nodes are free), largest-fragments-first (fewest ranges), and
// purely within one interconnect group (avoids the trunk crossing when
// one side of the switch has enough free ports). The assemblies live in
// the cluster's scratch (asmArena, asmOut) and, like candBuf, stay
// valid until the next candidates call; commit copies the ranges.
func (c *Cluster) assemblies(runs []NodeRange, k int) [][]NodeRange {
	free := 0
	for _, r := range runs {
		free += r.Count
	}
	if free < k {
		return nil
	}
	c.asmArena, c.asmOut = c.asmArena[:0], c.asmOut[:0]

	// Pack-left: first k eligible nodes in index order.
	c.takeNodes(runs, k)

	// Largest fragments first: fewest ranges; the last fragment is
	// trimmed from its left edge. Ties break on lower index, and First
	// is unique among runs, so the order is strict and an unstable sort
	// gives the one order there is.
	c.asmSort = append(c.asmSort[:0], runs...)
	slices.SortFunc(c.asmSort, func(a, b NodeRange) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.First, b.First)
	})
	if largest := c.takeNodes(c.asmSort, k); largest != nil {
		slices.SortFunc(largest, func(a, b NodeRange) int { return cmp.Compare(a.First, b.First) })
	}

	// Pure interconnect group: if either side of the trunk alone has k
	// free eligible nodes, an assembly confined to it never crosses.
	// The largest-first pick is in the arena by now, so the sort buffer
	// is free to hold the clipped runs.
	if nb := c.net.NonBlockingPorts; nb > 0 && nb < len(c.nodes) {
		for _, side := range [2][2]int{{0, nb}, {nb, len(c.nodes)}} {
			c.asmSort = c.asmSort[:0]
			for _, r := range runs {
				lo, hi := max(r.First, side[0]), min(r.First+r.Count, side[1])
				if hi > lo {
					c.asmSort = append(c.asmSort, NodeRange{First: lo, Count: hi - lo})
				}
			}
			c.takeNodes(c.asmSort, k)
		}
	}
	return c.asmOut
}

// takeNodes greedily takes k nodes from the given ranges in order,
// trimming the last one from its left edge, appends them to the arena
// and the taken set to asmOut, and returns it; nil, with nothing
// appended, if the ranges hold fewer. The set is capped at its length,
// so an append to it cannot write over the arena's next assembly.
func (c *Cluster) takeNodes(rs []NodeRange, k int) []NodeRange {
	from, left := len(c.asmArena), k
	for _, r := range rs {
		take := min(r.Count, left)
		c.asmArena = append(c.asmArena, NodeRange{First: r.First, Count: take})
		left -= take
		if left == 0 {
			n := len(c.asmArena)
			taken := c.asmArena[from:n:n]
			c.asmOut = append(c.asmOut, taken)
			return taken
		}
	}
	c.asmArena = c.asmArena[:from]
	return nil
}

// windowCrossesTrunk reports whether the contiguous window [first,
// first+k) spans both interconnect groups — rangesCrossTrunk without
// materializing a range slice.
func (c *Cluster) windowCrossesTrunk(first, k int) bool {
	nb := c.net.NonBlockingPorts
	return nb > 0 && nb < len(c.nodes) && first < nb && first+k > nb
}

// scoredWindow builds the candidate record for one contiguous k-wide
// window inside eligible run r. A single range has no extra-range or
// broken-row penalty, and the leftover fragmentation is computable in
// O(1): every other eligible run survives intact, plus the zero, one,
// or two pieces the window cuts r into. The arithmetic mirrors scored
// term for term, so the float score is bit-identical to scoring the
// materialized range slice.
func (c *Cluster) scoredWindow(runs []NodeRange, r NodeRange, first, k int) candidate {
	crosses := c.windowCrossesTrunk(first, k)
	pieces := 0
	if first > r.First {
		pieces++
	}
	if first+k < r.First+r.Count {
		pieces++
	}
	score := 0.0
	if crosses {
		score += scoreTrunkCross
	}
	score += scoreLeftover * float64(len(runs)-1+pieces)
	score += scoreTieBreak * float64(first)
	return candidate{single: NodeRange{First: first, Count: k}, crosses: crosses, score: score}
}

// scored builds the candidate record for one node set.
func (c *Cluster) scored(runs, rs []NodeRange, px int) candidate {
	crosses := c.rangesCrossTrunk(rs)
	score := 0.0
	if crosses {
		score += scoreTrunkCross
	}
	score += scoreExtraRange * float64(len(rs)-1)
	score += scoreLeftover * float64(leftoverFrags(runs, rs))
	score += scoreBrokenRow * float64(brokenRows(rs, px))
	score += scoreTieBreak * float64(rs[0].First)
	return candidate{ranges: rs, crosses: crosses, score: score}
}

// leftoverFrags counts the maximal free runs that remain after carving
// the taken ranges out of the current runs — the fragmentation a
// placement leaves behind. Both slices must be sorted ascending and
// every taken range must lie within some run.
func leftoverFrags(runs, taken []NodeRange) int {
	frags := 0
	ti := 0
	for _, r := range runs {
		pos := r.First
		end := r.First + r.Count
		for ti < len(taken) && taken[ti].First < end {
			if taken[ti].First > pos {
				frags++
			}
			pos = taken[ti].First + taken[ti].Count
			ti++
		}
		if pos < end {
			frags++
		}
	}
	return frags
}

// brokenRows counts decomposition-grid rows (px consecutive ranks,
// which exchange x-borders pairwise every step) that a range boundary
// splits across non-adjacent switch ports. A contiguous placement
// breaks no rows.
func brokenRows(rs []NodeRange, px int) int {
	if len(rs) <= 1 || px <= 1 {
		return 0
	}
	broken := 0
	lastRow := -1
	rank := 0
	for _, r := range rs[:len(rs)-1] {
		rank += r.Count // a discontinuity sits after this range's last rank
		if rank%px == 0 {
			continue // boundary falls between rows
		}
		if row := rank / px; row != lastRow {
			broken++
			lastRow = row
		}
	}
	return broken
}

// canPlace reports whether a k-node gang with the given memory need
// could be placed on the free nodes of the index now — the feasibility
// test the backfill shadow simulation runs against hypothetical future
// states, which the what-if probes build in the live index (probeFree).
// Enough eligible nodes is enough (pack-left assembly always succeeds).
// The eligible runs come from the index, so the cost is O(free runs +
// constrained nodes).
func (c *Cluster) canPlace(k int, need int64) bool {
	if c.idx.free < k {
		return false
	}
	free := 0
	bound := c.trunkBound()
	for _, r := range c.eligibleRuns(need) {
		if r.First >= bound { // eligibleRuns splits the run straddling it
			free, bound = 0, len(c.nodes) // severed trunk: the gang must seat on one side
		}
		free += r.Count
		if free >= k {
			return true
		}
	}
	return false
}

// placeableIgnoringMemory is canPlace with the memory constraint
// dropped: it separates "no node set seats the gang" from "nodes
// exist, but suspended images pin their memory" — the distinction the
// decision-explanation layer records (ReasonNoPlacement vs
// ReasonMemoryPinned in explain.go).
func (c *Cluster) placeableIgnoringMemory(k int) bool {
	return c.canPlace(k, 0)
}
