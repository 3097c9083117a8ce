package sched

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestArrange2DMatchesPaper(t *testing.T) {
	// The arrangements implied by Table 1's node counts.
	cases := map[int]NodeGrid{
		1:  {1, 1, 1},
		2:  {2, 1, 1},
		4:  {2, 2, 1},
		8:  {4, 2, 1},
		12: {4, 3, 1},
		16: {4, 4, 1},
		20: {5, 4, 1},
		24: {6, 4, 1},
		28: {7, 4, 1},
		30: {6, 5, 1},
		32: {8, 4, 1},
	}
	for n, want := range cases {
		if got := Arrange2D(n); got != want {
			t.Errorf("Arrange2D(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestArrange3D(t *testing.T) {
	if got := Arrange3D(8); got != (NodeGrid{2, 2, 2}) {
		t.Errorf("Arrange3D(8) = %v", got)
	}
	if got := Arrange3D(27); got != (NodeGrid{3, 3, 3}) {
		t.Errorf("Arrange3D(27) = %v", got)
	}
	if got := Arrange3D(12); got.Size() != 12 {
		t.Errorf("Arrange3D(12) = %v", got)
	}
}

func TestRankCoordsRoundTrip(t *testing.T) {
	g := NodeGrid{5, 4, 3}
	for r := 0; r < g.Size(); r++ {
		i, j, k := g.Coords(r)
		if g.Rank(i, j, k) != r {
			t.Fatalf("round trip failed for rank %d", r)
		}
	}
}

func TestScheduleStepsAreDisjoint(t *testing.T) {
	for _, g := range []NodeGrid{{4, 4, 1}, {7, 4, 1}, {3, 3, 3}, {8, 1, 1}, {1, 1, 1}} {
		for _, p := range []Pattern{Indirect, Direct} {
			for si, s := range Build(g, p) {
				seen := map[int]bool{}
				for _, pr := range s.Pairs {
					if pr.A == pr.B {
						t.Errorf("grid %v step %d: self pair", g, si)
					}
					if seen[pr.A] || seen[pr.B] {
						t.Errorf("grid %v step %d: node reused", g, si)
					}
					seen[pr.A], seen[pr.B] = true, true
				}
			}
		}
	}
}

func TestScheduleCoversAllAxialPairs(t *testing.T) {
	// Every pair of axially adjacent nodes must exchange exactly once
	// per direction over the schedule.
	for _, g := range []NodeGrid{{4, 4, 1}, {7, 4, 1}, {6, 5, 1}, {3, 3, 2}, {2, 1, 1}} {
		steps := Build(g, Indirect)
		count := map[Pair]int{}
		for _, s := range steps {
			if s.Diagonal() {
				t.Errorf("grid %v: indirect schedule contains diagonal step", g)
			}
			for _, pr := range s.Pairs {
				count[pr]++
			}
		}
		forEachPosition(g, func(i, j, k int) {
			a := g.Rank(i, j, k)
			if i+1 < g.PX {
				if count[Pair{a, g.Rank(i+1, j, k)}] != 1 {
					t.Errorf("grid %v: x pair at (%d,%d,%d) covered %d times",
						g, i, j, k, count[Pair{a, g.Rank(i+1, j, k)}])
				}
			}
			if j+1 < g.PY {
				if count[Pair{a, g.Rank(i, j+1, k)}] != 1 {
					t.Errorf("grid %v: y pair at (%d,%d,%d) not covered once", g, i, j, k)
				}
			}
			if k+1 < g.PZ {
				if count[Pair{a, g.Rank(i, j, k+1)}] != 1 {
					t.Errorf("grid %v: z pair at (%d,%d,%d) not covered once", g, i, j, k)
				}
			}
		})
	}
}

func TestIndirectStepCount(t *testing.T) {
	// Figure 7: a 2D arrangement has 4 steps; 3D has 6; a line has 2.
	cases := []struct {
		g    NodeGrid
		want int
	}{
		{NodeGrid{4, 4, 1}, 4},
		{NodeGrid{4, 1, 1}, 2},
		{NodeGrid{3, 3, 3}, 6},
		{NodeGrid{1, 1, 1}, 0},
		{NodeGrid{2, 1, 1}, 1}, // a single pair: only one parity step exists
	}
	for _, c := range cases {
		if got := len(Build(c.g, Indirect)); got != c.want {
			t.Errorf("steps(%v) = %d, want %d", c.g, got, c.want)
		}
	}
}

func TestDirectAddsDiagonalSteps(t *testing.T) {
	g := NodeGrid{4, 4, 1}
	ind := Build(g, Indirect)
	dir := Build(g, Direct)
	if len(dir) <= len(ind) {
		t.Fatalf("direct (%d steps) should exceed indirect (%d)", len(dir), len(ind))
	}
	diag := 0
	for _, s := range dir {
		if s.Diagonal() {
			diag++
		}
	}
	// 2D grid: two diagonal directions, up to two parity steps each.
	if diag < 2 || diag > 4 {
		t.Errorf("diagonal step count = %d", diag)
	}
}

func TestDirectCoversDiagonalPairs(t *testing.T) {
	g := NodeGrid{4, 4, 1}
	count := map[Pair]int{}
	for _, s := range Build(g, Direct) {
		if !s.Diagonal() {
			continue
		}
		for _, pr := range s.Pairs {
			count[pr]++
		}
	}
	forEachPosition(g, func(i, j, k int) {
		a := g.Rank(i, j, k)
		for _, d := range [][2]int{{1, 1}, {1, -1}} {
			ni, nj := i+d[0], j+d[1]
			if ni < 0 || ni >= g.PX || nj < 0 || nj >= g.PY {
				continue
			}
			if count[Pair{a, g.Rank(ni, nj, k)}] != 1 {
				t.Errorf("diagonal pair (%d,%d)->(%d,%d) covered %d times",
					i, j, ni, nj, count[Pair{a, g.Rank(ni, nj, k)}])
			}
		}
	})
}

func TestNeighbors(t *testing.T) {
	g := NodeGrid{3, 3, 1}
	n := Neighbors(g)
	// Corner has 2, edge 3, center 4.
	if n[g.Rank(0, 0, 0)] != 2 {
		t.Errorf("corner neighbors = %d", n[g.Rank(0, 0, 0)])
	}
	if n[g.Rank(1, 0, 0)] != 3 {
		t.Errorf("edge neighbors = %d", n[g.Rank(1, 0, 0)])
	}
	if n[g.Rank(1, 1, 0)] != 4 {
		t.Errorf("center neighbors = %d", n[g.Rank(1, 1, 0)])
	}
	if MaxNeighbors(g) != 4 {
		t.Errorf("max = %d", MaxNeighbors(g))
	}
	if MaxNeighbors(NodeGrid{1, 1, 1}) != 0 {
		t.Errorf("single node should have 0 neighbors")
	}
}

// Property: for random small grids the indirect schedule is disjoint per
// step and covers each axial adjacency exactly once.
func TestScheduleProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		g := NodeGrid{int(a%5) + 1, int(b%5) + 1, int(c%3) + 1}
		steps := Build(g, Indirect)
		covered := map[Pair]int{}
		for _, s := range steps {
			seen := map[int]bool{}
			for _, pr := range s.Pairs {
				if seen[pr.A] || seen[pr.B] {
					return false
				}
				seen[pr.A], seen[pr.B] = true, true
				covered[pr]++
			}
		}
		want := g.PY*g.PZ*(g.PX-1) + g.PX*g.PZ*(g.PY-1) + g.PX*g.PY*(g.PZ-1)
		total := 0
		for _, n := range covered {
			if n != 1 {
				return false
			}
			total++
		}
		return total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestArrangeSingleNode(t *testing.T) {
	if got := Arrange2D(1); got != (NodeGrid{1, 1, 1}) {
		t.Errorf("Arrange2D(1) = %v", got)
	}
	if got := Arrange3D(1); got != (NodeGrid{1, 1, 1}) {
		t.Errorf("Arrange3D(1) = %v", got)
	}
}

func TestArrangePrimesDegenerateToChains(t *testing.T) {
	for _, p := range []int{2, 3, 7, 13, 31} {
		want := NodeGrid{PX: p, PY: 1, PZ: 1}
		if got := Arrange2D(p); got != want {
			t.Errorf("Arrange2D(%d) = %v, want %v", p, got, want)
		}
		if got := Arrange3D(p); got != want {
			t.Errorf("Arrange3D(%d) = %v, want %v", p, got, want)
		}
	}
}

func TestArrangeNonPowerOfTwo(t *testing.T) {
	cases := []struct {
		n      int
		want2D NodeGrid
		want3D NodeGrid
	}{
		{12, NodeGrid{4, 3, 1}, NodeGrid{3, 2, 2}},
		{18, NodeGrid{6, 3, 1}, NodeGrid{3, 3, 2}},
		{20, NodeGrid{5, 4, 1}, NodeGrid{5, 2, 2}},
		{24, NodeGrid{6, 4, 1}, NodeGrid{4, 3, 2}},
		{36, NodeGrid{6, 6, 1}, NodeGrid{4, 3, 3}},
	}
	for _, c := range cases {
		if got := Arrange2D(c.n); got != c.want2D {
			t.Errorf("Arrange2D(%d) = %v, want %v", c.n, got, c.want2D)
		}
		if got := Arrange3D(c.n); got != c.want3D {
			t.Errorf("Arrange3D(%d) = %v, want %v", c.n, got, c.want3D)
		}
	}
}

func TestArrangeInvariants(t *testing.T) {
	for n := 1; n <= 64; n++ {
		g2 := Arrange2D(n)
		if g2.Size() != n || g2.PZ != 1 || g2.PX < g2.PY {
			t.Errorf("Arrange2D(%d) = %v violates invariants", n, g2)
		}
		g3 := Arrange3D(n)
		if g3.Size() != n || g3.PX < g3.PY || g3.PY < g3.PZ {
			t.Errorf("Arrange3D(%d) = %v violates invariants", n, g3)
		}
	}
}

func TestArrangeRejectsNonPositive(t *testing.T) {
	for _, fn := range []func(int) NodeGrid{Arrange2D, Arrange3D} {
		for _, n := range []int{0, -1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Arrange(%d) did not panic", n)
					}
				}()
				fn(n)
			}()
		}
	}
}

// buildReference is the schedule construction Build replaced: a walk
// over every position per step, appending the pairs it finds. Build and
// the closed-form step facts are checked against it.
func buildReference(g NodeGrid, p Pattern) []Step {
	steps := []Step{}
	for dim := 0; dim < 3; dim++ {
		extent := [3]int{g.PX, g.PY, g.PZ}[dim]
		for parity := 1; parity >= 0; parity-- {
			var axis [3]int
			axis[dim] = 1
			var pairs []Pair
			forEachPosition(g, func(i, j, k int) {
				c := [3]int{i, j, k}
				if c[dim]%2 == parity && c[dim]+1 < extent {
					c[dim]++
					pairs = append(pairs, Pair{A: g.Rank(i, j, k), B: g.Rank(c[0], c[1], c[2])})
				}
			})
			if len(pairs) > 0 {
				steps = append(steps, Step{Axis: axis, Pairs: pairs})
			}
		}
	}
	if p != Direct {
		return steps
	}
	for _, d := range [][3]int{{1, 1, 0}, {1, -1, 0}, {1, 0, 1}, {1, 0, -1}, {0, 1, 1}, {0, 1, -1}} {
		primary := 0
		if d[0] == 0 {
			primary = 1
		}
		for parity := 0; parity < 2; parity++ {
			var pairs []Pair
			forEachPosition(g, func(i, j, k int) {
				ni, nj, nk := i+d[0], j+d[1], k+d[2]
				if [3]int{i, j, k}[primary]%2 != parity ||
					ni < 0 || ni >= g.PX || nj < 0 || nj >= g.PY || nk < 0 || nk >= g.PZ {
					return
				}
				pairs = append(pairs, Pair{A: g.Rank(i, j, k), B: g.Rank(ni, nj, nk)})
			})
			if len(pairs) > 0 {
				steps = append(steps, Step{Axis: d, Pairs: pairs})
			}
		}
	}
	return steps
}

// testGrids are every box up to 5x5x5 plus the arrangements of some
// larger and awkward (prime, square, cubic) node counts.
func testGrids() []NodeGrid {
	var gs []NodeGrid
	for px := 1; px <= 5; px++ {
		for py := 1; py <= 5; py++ {
			for pz := 1; pz <= 5; pz++ {
				gs = append(gs, NodeGrid{px, py, pz})
			}
		}
	}
	for _, n := range []int{28, 30, 32, 97, 100, 343, 1000} {
		gs = append(gs, Arrange2D(n), Arrange3D(n))
	}
	return gs
}

func TestBuildMatchesReference(t *testing.T) {
	for _, g := range testGrids() {
		for _, p := range []Pattern{Indirect, Direct} {
			if got, want := Build(g, p), buildReference(g, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("grid %v pattern %d: Build differs from the reference walk\n got %v\nwant %v", g, p, got, want)
			}
		}
	}
}

// The closed-form step facts describe exactly the steps Build lists: same
// order, same pair counts (so Build's slices never regrow), and the same
// number of pairs on either side of any rank threshold.
func TestSpecFactsMatchBuild(t *testing.T) {
	for _, g := range testGrids() {
		for _, p := range []Pattern{Indirect, Direct} {
			steps := Build(g, p)
			for _, spec := range Specs(p) {
				if spec.Pairs(g) == 0 {
					continue
				}
				if len(steps) == 0 {
					t.Fatalf("grid %v: spec %+v has %d pairs, Build has no such step", g, spec, spec.Pairs(g))
				}
				st := steps[0]
				steps = steps[1:]
				if st.Axis != spec.Axis {
					t.Fatalf("grid %v: spec %+v out of order with Build step %v", g, spec, st.Axis)
				}
				if len(st.Pairs) != spec.Pairs(g) || cap(st.Pairs) != len(st.Pairs) {
					t.Fatalf("grid %v spec %+v: Pairs() = %d, Build listed %d (cap %d)",
						g, spec, spec.Pairs(g), len(st.Pairs), cap(st.Pairs))
				}
				for _, th := range []int{-1, 0, 1, 2, 7, 24, g.Size() / 2, g.Size() - 1, g.Size(), g.Size() + 3} {
					want := 0
					for _, pr := range st.Pairs {
						if (pr.A >= th) != (pr.B >= th) {
							want++
						}
					}
					if got := spec.Straddling(g, th); got != want {
						t.Fatalf("grid %v spec %+v: Straddling(%d) = %d, want %d", g, spec, th, got, want)
					}
				}
			}
			if len(steps) != 0 {
				t.Fatalf("grid %v: Build has %d steps no spec accounts for", g, len(steps))
			}
		}
	}
}

func TestBuildAllocatesOncePerStep(t *testing.T) {
	g := Arrange3D(1000)
	steps := len(Build(g, Direct))
	if allocs := testing.AllocsPerRun(10, func() { Build(g, Direct) }); allocs > float64(steps+1) {
		t.Errorf("Build allocated %.0f times for %d steps, want at most %d", allocs, steps, steps+1)
	}
}

func TestMaxNeighborsMatchesNeighbors(t *testing.T) {
	for _, g := range testGrids() {
		want := 0
		for _, n := range Neighbors(g) {
			want = max(want, n)
		}
		if got := MaxNeighbors(g); got != want {
			t.Errorf("MaxNeighbors(%v) = %d, want %d", g, got, want)
		}
	}
}
