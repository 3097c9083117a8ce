// Package sched builds the contention-aware communication schedules of
// Section 4.3 (Figure 7) of the paper. The LBM sub-domains are arranged
// on a grid of nodes; in every simulation step, border velocity
// distributions must be exchanged with nearest (axial) and second-nearest
// (diagonal) neighbors. The schedule organizes these exchanges into
// synchronous steps of pairwise-disjoint node pairs so that no port of
// the switch ever carries two transfers at once:
//
//	step 1: nodes in the (2i)th columns exchange with their left neighbors
//	step 2: ... with their right neighbors
//	step 3: nodes in the (2i)th rows exchange with the row above
//	step 4: ... with the row below
//
// (and two more steps for the z dimension in 3D arrangements).
//
// Diagonal data are NOT exchanged directly: "to keep the communication
// pattern from becoming too complicated ... we transfer those data
// indirectly in a two-step process" — the diagonal payload rides along
// with an axial transfer and is forwarded by the intermediate node in a
// later step. The Direct pattern, which adds explicit diagonal exchange
// steps, is provided for the ablation experiment A1.
package sched

import (
	"fmt"
	"math"
)

// NodeGrid is the Cartesian arrangement of cluster nodes. Ranks are
// laid out x-fastest: rank = (k*PY + j)*PX + i.
type NodeGrid struct {
	PX, PY, PZ int
}

// Size returns the number of nodes in the grid.
func (g NodeGrid) Size() int { return g.PX * g.PY * g.PZ }

// Rank returns the rank of grid position (i, j, k).
func (g NodeGrid) Rank(i, j, k int) int { return (k*g.PY+j)*g.PX + i }

// Coords returns the grid position of a rank.
func (g NodeGrid) Coords(rank int) (i, j, k int) {
	i = rank % g.PX
	j = (rank / g.PX) % g.PY
	k = rank / (g.PX * g.PY)
	return
}

// Valid reports whether the grid has positive extents.
func (g NodeGrid) Valid() bool { return g.PX > 0 && g.PY > 0 && g.PZ > 0 }

func (g NodeGrid) String() string {
	return fmt.Sprintf("%dx%dx%d", g.PX, g.PY, g.PZ)
}

// Arrange2D factors n nodes into the most square PX x PY x 1 grid with
// PX >= PY, matching the paper's arrangements (e.g. 30 nodes -> 6x5,
// 32 -> 8x4, 28 -> 7x4).
func Arrange2D(n int) NodeGrid {
	if n <= 0 {
		panic(fmt.Sprintf("sched: invalid node count %d", n))
	}
	best := NodeGrid{PX: n, PY: 1, PZ: 1}
	for py := 1; py*py <= n; py++ {
		if n%py == 0 {
			best = NodeGrid{PX: n / py, PY: py, PZ: 1}
		}
	}
	return best
}

// Arrange3D factors n nodes into the most cubic PX x PY x PZ grid with
// PX >= PY >= PZ.
func Arrange3D(n int) NodeGrid {
	if n <= 0 {
		panic(fmt.Sprintf("sched: invalid node count %d", n))
	}
	best := NodeGrid{PX: n, PY: 1, PZ: 1}
	bestCost := math.Inf(1)
	for pz := 1; pz*pz*pz <= n; pz++ {
		if n%pz != 0 {
			continue
		}
		m := n / pz
		for py := pz; py*py <= m; py++ {
			if m%py != 0 {
				continue
			}
			px := m / py
			// Cost: total surface of the unit-volume decomposition.
			cost := float64(px*py + py*pz + px*pz)
			if cost < bestCost {
				bestCost = cost
				best = NodeGrid{PX: px, PY: py, PZ: pz}
			}
		}
	}
	return best
}

// Pattern selects between the paper's indirect diagonal routing and the
// direct diagonal exchange used as an ablation baseline.
type Pattern int

const (
	// Indirect is the paper's pattern: only axial exchange steps;
	// diagonal data ride through the intermediate node in two hops.
	Indirect Pattern = iota
	// Direct adds explicit pairwise steps for each diagonal direction.
	Direct
)

// Pair is one pairwise exchange between ranks A and B.
type Pair struct {
	A, B int
}

// Step is one synchronous schedule step: a set of pairwise-disjoint
// exchanges all along the same axis.
type Step struct {
	// Axis is the direction from A to B (one of the D3Q19 link
	// directions, excluding rest): axial steps have one nonzero
	// component, diagonal steps two.
	Axis [3]int
	// Pairs lists the disjoint node pairs exchanging in this step.
	Pairs []Pair
}

// Diagonal reports whether the step exchanges along a diagonal axis.
func (s Step) Diagonal() bool {
	n := 0
	for _, a := range s.Axis {
		if a != 0 {
			n++
		}
	}
	return n > 1
}

// StepSpec names one step of the schedule without listing its pairs: every
// position whose coordinate along the axis' first nonzero component has
// the given parity exchanges with the position one Axis away, if that is
// on the grid. Alternating parities make the pairs of a step disjoint.
// The facts a cost model needs about a step (Pairs, Straddling) follow
// from the spec in closed form; Build expands the same specs into pairs.
type StepSpec struct {
	Axis   [3]int
	Parity int
}

// stepOrder is the schedule's step enumeration: x, y, z, the
// "left"/odd-start step before the "right"/even-start one as in Figure 7,
// then (Direct only) the six diagonal directions of D3Q19.
var stepOrder = [18]StepSpec{
	{[3]int{1, 0, 0}, 1}, {[3]int{1, 0, 0}, 0},
	{[3]int{0, 1, 0}, 1}, {[3]int{0, 1, 0}, 0},
	{[3]int{0, 0, 1}, 1}, {[3]int{0, 0, 1}, 0},
	{[3]int{1, 1, 0}, 0}, {[3]int{1, 1, 0}, 1},
	{[3]int{1, -1, 0}, 0}, {[3]int{1, -1, 0}, 1},
	{[3]int{1, 0, 1}, 0}, {[3]int{1, 0, 1}, 1},
	{[3]int{1, 0, -1}, 0}, {[3]int{1, 0, -1}, 1},
	{[3]int{0, 1, 1}, 0}, {[3]int{0, 1, 1}, 1},
	{[3]int{0, 1, -1}, 0}, {[3]int{0, 1, -1}, 1},
}

// Specs returns the steps of pattern p in schedule order, read-only. A
// step with no pairs on a given grid (Pairs == 0) is not part of that
// grid's schedule.
func Specs(p Pattern) []StepSpec {
	if p == Direct {
		return stepOrder[:]
	}
	return stepOrder[:6]
}

// starts reports whether position (i, j, k) is the A side of a pair.
func (s StepSpec) starts(g NodeGrid, i, j, k int) bool {
	c := i
	if s.Axis[0] == 0 {
		c = j
		if s.Axis[1] == 0 {
			c = k
		}
	}
	ni, nj, nk := i+s.Axis[0], j+s.Axis[1], k+s.Axis[2]
	return c%2 == s.Parity &&
		ni >= 0 && ni < g.PX && nj >= 0 && nj < g.PY && nk >= 0 && nk < g.PZ
}

// stride returns B-A, the same for every pair of the step.
func (s StepSpec) stride(g NodeGrid) int { return g.Rank(s.Axis[0], s.Axis[1], s.Axis[2]) }

// Pairs returns the number of pairs of the step on grid g: a product of
// per-dimension counts of valid A coordinates. Along the first nonzero
// axis component those are the coordinates of the step's parity below
// extent-1, along the second every coordinate but one, elsewhere all.
func (s StepSpec) Pairs(g NodeGrid) int {
	n := 1
	first := true
	for d, extent := range [3]int{g.PX, g.PY, g.PZ} {
		switch {
		case s.Axis[d] == 0:
			n *= extent
		case first:
			n *= (extent - s.Parity) / 2
			first = false
		default:
			n *= extent - 1
		}
	}
	return n
}

// Straddling returns the number of pairs of the step with exactly one
// rank >= t (for t the size of the non-blocking switch: the exchanges
// that cross the stacking trunk). Such a pair has its lower rank in the
// window of |stride| ranks below t, so only that window is walked, with
// the A side's coordinates carried along instead of divided out.
func (s StepSpec) Straddling(g NodeGrid, t int) int {
	// w is |stride|; a is the A side's offset from the pair's lower rank.
	w, a := s.stride(g), 0
	if w < 0 {
		w, a = -w, -w
	}
	lo, n := max(t-w, 0), g.Size()
	i, j, k := g.Coords(lo + a)
	count := 0
	for ; lo < t && lo+w < n; lo++ {
		if s.starts(g, i, j, k) {
			count++
		}
		if i++; i == g.PX {
			i = 0
			if j++; j == g.PY {
				j, k = 0, k+1
			}
		}
	}
	return count
}

// Build constructs the schedule for grid g under the given pattern: the
// non-empty steps of Specs(p), each expanded into its pairs in rank order
// of A.
func Build(g NodeGrid, p Pattern) []Step {
	if !g.Valid() {
		panic(fmt.Sprintf("sched: invalid grid %v", g))
	}
	specs := Specs(p)
	steps := make([]Step, 0, len(specs))
	for _, s := range specs {
		n := s.Pairs(g)
		if n == 0 {
			continue
		}
		pairs := make([]Pair, 0, n)
		stride := s.stride(g)
		for k := 0; k < g.PZ; k++ {
			for j := 0; j < g.PY; j++ {
				for i := 0; i < g.PX; i++ {
					if s.starts(g, i, j, k) {
						a := g.Rank(i, j, k)
						pairs = append(pairs, Pair{A: a, B: a + stride})
					}
				}
			}
		}
		steps = append(steps, Step{Axis: s.Axis, Pairs: pairs})
	}
	return steps
}
